"""The offline reference every service answer is checked against.

Each session's stream is replayed through ``repro.run`` on the
``faithful`` engine (the object-model monitor), not on the service's
default ``vectorized`` kernel, so a kernel defect cannot agree with
itself.  ``track_series`` gives the per-step message count, so every op
boundary has an exact expected (time, top-k, message count).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

REFERENCE_ENGINE = "faithful"


@dataclass
class Expected:
    """Expected answer after each block of one session's stream."""

    time: np.ndarray  # (blocks,) last stepped row index
    topk: np.ndarray  # (blocks, k) ascending node ids
    messages: np.ndarray  # (blocks,) cumulative protocol messages


def _session_reference(args) -> Expected:
    values, k, seed, block = args
    import repro
    from repro.core.monitor import MonitorConfig

    config = MonitorConfig(collect_events=False, track_series=True)
    result = repro.run(repro.RunSpec(values, k=k, seed=seed, config=config),
                       engine=REFERENCE_ENGINE)
    steps, per_step = result.raw.ledger.series
    if not np.array_equal(steps, np.arange(len(values))):
        raise RuntimeError("reference message series does not cover every step")
    ends = np.arange(block - 1, len(values), block)
    cumulative = np.cumsum(per_step)
    return Expected(
        time=ends.astype(np.int64),
        topk=np.asarray(result.topk_history)[ends],
        messages=cumulative[ends],
    )


def compute(inputs, processes: int = 2) -> list[Expected]:
    """Reference answers for every session (spawned worker processes)."""
    w = inputs.workload
    jobs = [(values, w.k, seed, w.block)
            for values, seed in zip(inputs.streams, inputs.engine_seeds)]
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes) as pool:
        expected = pool.map(_session_reference, jobs,
                            chunksize=max(1, len(jobs) // (4 * processes)))
        pool.close()
    pool.join()  # every worker process has ended before the service starts
    return expected
