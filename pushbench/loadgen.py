"""The closed-loop load generator: one connection, one outstanding op.

An op is a push (``feed_rows`` for a block, ``feed`` for a single row)
followed by ``query(wait=True)``; its latency runs from the start of the
push to the arrival of the answer.  The next op starts only after that.

The timed ops are cut into slices (``slices``).  Before the first op,
after the last op of every slice and whenever ``PROBE_EVERY_S`` has
passed, the generator measures the host's speed with fixed probe tasks
(``host_speed``), so every slice has speeds measured on either side of
it and within it.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter

#: Timed ops per slice: enough that a slice's p90 has ten ops beyond it.
SLICE_OPS = 128

#: Rounds of each probe task per speed measurement (about 10 ms of CPU).
PROBE_ROUNDS = 40

#: Longest stretch of ops without a speed measurement.
PROBE_EVERY_S = 0.1


def probe_task() -> int:
    """Interpreter work: string keys, a dict, a sort."""
    table = {}
    for i in range(400):
        table[str(i * 7919 % 1009)] = i
    return len(sorted(table))


_BLOCK = np.arange(1024, dtype=np.int64).reshape(64, 16)


def _numpy_task() -> int:
    """Small-array NumPy calls, the size of one pushed block."""
    block = _BLOCK * 3 % 1009
    np.argsort(block, axis=1)
    return int(block.sum())


_PAIR = socket.socketpair()


def _syscall_task() -> int:
    """Kernel work: eight 64-byte round trips through a socket pair."""
    for _ in range(8):
        _PAIR[0].send(b"x" * 64)
        _PAIR[1].recv(64)
    return 8


PROBE_TASKS = (probe_task, _numpy_task, _syscall_task)


def host_speed(rounds: int = PROBE_ROUNDS) -> tuple[float, ...]:
    """The host's current speed: for each of ``PROBE_TASKS``, tasks per
    CPU-second of this thread.  CPU time, not wall time, so a service
    process that runs on the same CPU meanwhile (a fleet worker's
    on-idle checkpoint, say) does not read as a slow host."""
    spent = [0.0] * len(PROBE_TASKS)
    for _ in range(rounds):
        for j, task in enumerate(PROBE_TASKS):
            start = time.thread_time()
            task()
            spent[j] += time.thread_time() - start
    return tuple(rounds / t for t in spent)


def slices(ops: int) -> list[range]:
    """The timed ops cut into slices of ``SLICE_OPS``; a short tail
    joins the slice before it."""
    bounds = list(range(0, ops, SLICE_OPS)) + [ops]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < SLICE_OPS // 2:
        del bounds[-2]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@dataclass
class Answers:
    """What the service answered for each op (``None`` where it failed)."""

    start: np.ndarray
    end: np.ndarray
    time: list = field(default_factory=list)
    topk: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    #: ``(i, host_speed())``: a speed measured after timed op ``i``
    #: (``-1``: before the first).
    speed: list = field(default_factory=list)
    #: Wall time of the speed measurements between timed ops.
    probe_s: float = 0.0


def push_and_wait(handle, rows: np.ndarray) -> dict:
    """One op: push ``rows`` to the session, wait for its answer."""
    if len(rows) == 1:
        handle.feed(rows[0])
    else:
        handle.feed_rows(rows)
    return handle.query(wait=True)


def run_ops(handles, inputs) -> Answers:
    """Replay the timed schedule, one op at a time, measuring the host's
    speed before the first op, at every slice's end and every
    ``PROBE_EVERY_S`` in between."""
    from repro.errors import ServiceError

    ops = inputs.ops
    answers = Answers(start=np.empty(ops), end=np.empty(ops))
    slice_ends = {s[-1] for s in slices(ops)}
    answers.speed.append((-1, host_speed()))
    probed = clock()
    for i in range(ops):
        session, rows = inputs.op(i)
        t0 = clock()
        try:
            reply = push_and_wait(handles[session], rows)
        except ServiceError as exc:
            reply = None
            answers.errors.append(f"op {i}: {exc}")
        answers.start[i], answers.end[i] = t0, clock()
        if reply is None:
            answers.time.append(None)
            answers.topk.append(None)
            answers.messages.append(None)
        else:
            answers.time.append(reply["time"])
            answers.topk.append(reply["topk"])
            answers.messages.append(reply["messages"])
        if i in slice_ends or answers.end[i] - probed >= PROBE_EVERY_S:
            answers.speed.append((i, host_speed()))
            if i + 1 < ops:
                answers.probe_s += clock() - answers.end[i]
            probed = clock()
    return answers
