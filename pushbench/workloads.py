"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload is a closed loop: one generator process, one connection,
one outstanding op.  An op pushes the next block of rows to the next
session round-robin, then waits for that session's answer
(``query(wait=True)``), the way a monitoring client drives the blocking
:class:`~repro.service.client.SessionHandle`.

The op schedule is fixed, not a time window: every launch of the
service replays ``rounds`` whole rounds over all sessions, so one seed
always replays the same ops and ``messages_per_row`` repeats exactly.
``--seconds`` sets how many such launches a run makes, not their size.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """Shape of one workload (why each exists: ``BENCHMARK.json``)."""

    name: str
    generator: str  # catalog workload the rows come from
    params: tuple  # (name, value) overrides for the generator
    sessions: int
    n: int
    k: int
    block: int  # rows per op
    workers: int  # 1 = one server process, N >= 2 = fleet router + N workers
    rounds: int  # timed rounds (one op per session each) per launch, ~3 s


#: Gap between the quiet walks' starting levels.  The catalog default
#: (200) lets some sessions' boundary walks meet within a run and others
#: not, so the message count per row moved by ~30% between seeds; at 1000
#: the walks never meet, every session pays the same initial reset and
#: nothing after it, and the figure repeats within ~1.5% across seeds.
QUIET_SPREAD = 1000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk_quiet",
            generator="random_walk_spread", params=(("spread", QUIET_SPREAD),),
            sessions=256, n=16, k=4, block=64, workers=1, rounds=12,
        ),
        Workload(
            name="bulk_churn",
            generator="iid_uniform", params=(),
            sessions=64, n=64, k=8, block=16, workers=1, rounds=6,
        ),
        Workload(
            name="fleet_rowpush",
            generator="random_walk_spread", params=(("spread", QUIET_SPREAD),),
            sessions=256, n=16, k=4, block=1, workers=2, rounds=2,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run feeds the service, generated from the seed.

    ``streams[s]`` holds session ``s``'s rows: block 0 is the untimed
    warm-up op, blocks ``1..rounds`` the timed ops.
    """

    workload: Workload
    rounds: int
    streams: list[np.ndarray]
    engine_seeds: list[int]

    @property
    def ops(self) -> int:
        return self.rounds * self.workload.sessions

    @property
    def timed_rows(self) -> int:
        return self.ops * self.workload.block

    def op(self, i: int) -> tuple[int, np.ndarray]:
        """Timed op ``i``: ``(session index, rows to push)``."""
        w = self.workload
        session, block = i % w.sessions, 1 + i // w.sessions
        return session, self.streams[session][block * w.block:(block + 1) * w.block]

    def warmup(self, session: int) -> np.ndarray:
        return self.streams[session][: self.workload.block]


def make_inputs(workload: Workload, seed: int, rounds: int | None = None) -> Inputs:
    """Generate every session's rows and engine seed from ``seed``, for
    ``rounds`` timed rounds (default: the workload's own)."""
    from repro.streams import get_workload

    rounds = workload.rounds if rounds is None else rounds
    steps = (1 + rounds) * workload.block
    root = np.random.SeedSequence([seed, zlib.crc32(workload.name.encode())])
    streams, engine_seeds = [], []
    for child in root.spawn(workload.sessions):
        stream_seed, engine_seed = (int(x) for x in child.generate_state(2))
        values = get_workload(workload.generator, workload.n, steps, seed=stream_seed,
                              **dict(workload.params)).generate()
        streams.append(np.ascontiguousarray(values, dtype=np.int64))
        engine_seeds.append(engine_seed)
    return Inputs(workload, rounds, streams, engine_seeds)
