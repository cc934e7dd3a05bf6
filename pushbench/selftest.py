"""Self-test of the benchmark's correctness checks, at a small scale.

    python3 pushbench/selftest.py

1. The reference runs on another engine than the service's default.
2. One small launch per workload: ``ok_share`` is 1.0 against the true
   reference, and drops by exactly one op when one reference answer is
   corrupted (its time, its top-k or its message count), or when one op
   is recorded as failed.
3. One full benchmark run per workload is correct, and the
   ``messages_per_row`` it prints equals, bit for bit, the reference's
   own message total over the rows pushed (the reference is
   deterministic, so the figure repeats exactly across runs).

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 11


def _fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _run(workload: str, seed: int) -> dict:
    """One benchmark run of the fewest launches."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        _fail(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_corruption(workload_name: str) -> None:
    import reference
    import run
    from verify import check_answers, corrupted
    from workloads import WORKLOADS, make_inputs

    inputs = make_inputs(WORKLOADS[workload_name], seed=7, rounds=1)
    expected = reference.compute(inputs)
    scratch = run.SCRATCH / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        launch = run.launch(inputs, scratch / workload_name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    answers = launch["answers"]
    ops = inputs.ops
    if check_answers(inputs, expected, answers).sum() != ops:
        _fail(f"{workload_name}: service answers differ from the reference")
    victim = ops // 3
    for field in ("time", "topk", "messages"):
        ok = check_answers(inputs, corrupted(inputs, expected, victim, field), answers)
        if ok.sum() != ops - 1 or ok[victim]:
            _fail(f"{workload_name}: a corrupted reference {field} was not counted as wrong")
    failed = copy.deepcopy(answers)
    failed.time[victim] = failed.topk[victim] = failed.messages[victim] = None
    if check_answers(inputs, expected, failed).sum() != ops - 1:
        _fail(f"{workload_name}: a failed op was not counted as wrong")
    print(f"ok: {workload_name}: {ops} ops match; each corruption costs exactly one op")


def main() -> int:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import reference
    from repro.service.manager import DEFAULT_ENGINE
    from verify import reference_messages_per_row
    from workloads import WORKLOADS, make_inputs

    if reference.REFERENCE_ENGINE == DEFAULT_ENGINE:
        _fail(f"reference engine {reference.REFERENCE_ENGINE!r} is the service's own")
    print(f"ok: reference engine {reference.REFERENCE_ENGINE!r} != service {DEFAULT_ENGINE!r}")
    for name in WORKLOADS:
        check_corruption(name)
    for name in WORKLOADS:
        result = _run(name, SEED)
        if not result["correct"] or result["metrics"]["ok_share"]["value"] != 1.0:
            _fail(f"{name}: a benchmark run was not correct: {result}")
        inputs = make_inputs(WORKLOADS[name], SEED)
        want = reference_messages_per_row(inputs, reference.compute(inputs))
        got = result["metrics"]["messages_per_row"]["value"]
        if got != want:
            _fail(f"{name}: messages_per_row {got!r} != reference {want!r}")
        print(f"ok: {name}: messages_per_row {got!r} equals the reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
