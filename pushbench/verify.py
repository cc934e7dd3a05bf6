"""Answer checks: every op against the offline reference.

An op is correct when the service's (time, top-k, message count) equals
the reference at that op's block boundary.  A failed or refused op
counts as wrong.
"""

from __future__ import annotations

import copy

import numpy as np


def check_answers(inputs, expected, answers) -> np.ndarray:
    """Boolean per timed op: did the service answer exactly the reference?"""
    sessions = inputs.workload.sessions
    ok = np.zeros(inputs.ops, dtype=bool)
    for i in range(inputs.ops):
        if answers.time[i] is None:
            continue
        ref = expected[i % sessions]
        block = 1 + i // sessions
        ok[i] = (
            answers.time[i] == ref.time[block]
            and answers.messages[i] == ref.messages[block]
            and answers.topk[i] == ref.topk[block].tolist()
        )
    return ok


def check_warmup(inputs, expected, replies) -> bool:
    """The untimed warm-up answers must match the reference too."""
    return all(
        reply["time"] == ref.time[0]
        and reply["messages"] == ref.messages[0]
        and reply["topk"] == ref.topk[0].tolist()
        for reply, ref in zip(replies, expected)
    )


def messages_per_row(inputs, expected, answers) -> float:
    """Protocol messages per pushed row: every session's message count
    after its last op (the paper's total cost, initial reset included)
    over every row pushed, warm-up included.  A session whose last op
    failed contributes its reference count (the run is marked incorrect
    by the answer check anyway)."""
    sessions = inputs.workload.sessions
    last_round = inputs.ops - sessions
    total = 0
    for s, ref in enumerate(expected):
        final = answers.messages[last_round + s]
        total += int(ref.messages[-1]) if final is None else final
    return total / (sessions * len(inputs.streams[0]))


def reference_messages_per_row(inputs, expected) -> float:
    """The reference's own ``messages_per_row``: every session's final
    message count over every row pushed."""
    total = sum(int(ref.messages[-1]) for ref in expected)
    return total / (inputs.workload.sessions * len(inputs.streams[0]))


def corrupted(inputs, expected, op: int, field: str = "messages") -> list:
    """A copy of ``expected`` whose reference ``field`` (time, topk or
    messages) for timed op ``op`` is off by one."""
    sessions = inputs.workload.sessions
    out = list(expected)
    ref = copy.deepcopy(expected[op % sessions])
    getattr(ref, field)[1 + op // sessions] += 1
    out[op % sessions] = ref
    return out


def checker_is_live(inputs, expected, answers) -> bool:
    """Corrupt the middle op's reference answer and require exactly one
    more wrong op: guards against a checker that passes everything."""
    op = inputs.ops // 2
    ok = check_answers(inputs, expected, answers)
    bad = check_answers(inputs, corrupted(inputs, expected, op), answers)
    return int(ok.sum()) - int(bad.sum()) == int(ok[op]) and not bad[op]
