"""Push→answer benchmark of the streaming top-k session service.

Usage (from the repository root)::

    python3 pushbench/run.py --workload bulk_quiet --seed 1 --seconds 15 --trace 0

The service runs as separate processes (``python -m repro.service
--serve``, plus ``--workers 2`` for the fleet) and is driven through its
public client (``repro.connect``, ``SessionHandle.feed_rows`` / ``feed``
/ ``query(wait=True)``) in a closed loop.  Every answer is checked
against an offline ``repro.run`` reference on another engine.

``--trace 0`` launches the service again and again until ``--seconds``
are used (at least ``MIN_LAUNCHES`` times).  Every launch replays the
same inputs: set-up (process spawn, listen, session create), one untimed
warm-up op per session, then the workload's fixed schedule of timed ops
(about 3 s).  Many short launches spread the measurement over the whole
run.  The timed ops are cut into slices of ``loadgen.SLICE_OPS`` ops.

The shared host switches between speed modes, and in a slow mode every
op takes longer.  So the load generator measures the host's speed with
fixed probe tasks before, between and after the slices
(``loadgen.host_speed``), and every time is scaled to the speed
``REFERENCE_SPEED``: a slice measured at 0.6 of that speed counts 0.6
of its duration.  The probe tasks are the benchmark's own code, so a
change to the service moves the figures and not the scale.
``rows_per_s`` is the mean over slices of confirmed rows per scaled
second; ``answer_ms_p50`` / ``answer_ms_p90`` are the means over slices
of each slice's scaled p50 / p90.  ``setup_s`` is scaled by the speeds
measured right before and after it; it and ``peak_rss_mb`` are the
medians over launches.

``--trace 1`` makes such launches untraced, then, as the last launch of
the run, one with spans installed in every service process
(``trace_hook/``) and around the client calls, and prints the per-layer
metrics (``layers.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Diagnostics go to
standard error.  A run that cannot set up or run exits non-zero without
a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HOOK = BENCH / "trace_hook"
SCRATCH = ROOT / ".pushbench"

#: Fewest identical service launches in an untraced run.
MIN_LAUNCHES = 3

#: Rates of ``loadgen.PROBE_TASKS`` (tasks per CPU-second) on the host
#: every timing is scaled to: about the fast mode of the 2-vCPU VM the
#: benchmark was tuned on, whose speed switched between modes for seconds
#: to minutes (interpreter task 5k-10k/s).
REFERENCE_SPEED = (10_000.0, 65_000.0, 80_000.0)

#: String hashing seed of the benchmark and of every service process, so
#: that dict and set layouts repeat from launch to launch.
HASH_SEED = "0"

END_TO_END_UNITS = {
    "rows_per_s": "rows/s",
    "answer_ms_p50": "ms",
    "answer_ms_p90": "ms",
    "ok_share": "ratio",
    "messages_per_row": "msgs/row",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def host_probe(seconds: float = 0.3) -> float:
    """A fixed pure-Python task, in tasks per second: run before and after
    each run, it shows when a run landed in a slow episode of the shared
    host without entering any gated metric."""
    from loadgen import probe_task

    done = 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        probe_task()
        done += 1
    return done / elapsed


def pin_to_one_cpu() -> int:
    """Pin this process, and so every service process it starts, to one
    CPU.  A closed loop with one outstanding op keeps one process busy at
    a time; on one CPU each hand-off is a local context switch, not a
    wake-up of another, idle virtual CPU, whose cost drifts with the
    host's load (see DESIGN.md)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _service_env(trace_dir: Path | None) -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_OBS", "PUSHBENCH_TRACE_DIR")}
    path = [str(SRC)]
    if trace_dir is not None:
        path.insert(0, str(HOOK))
        env["PUSHBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def launch(inputs, run_dir: Path, trace_dir: Path | None = None) -> dict:
    """One service launch: start it, create the sessions, warm up, replay
    the timed ops, read peak memory, stop it.  Returns what was measured."""
    import repro
    from loadgen import clock, host_speed, push_and_wait, run_ops
    from procs import Service, peak_rss_mib

    w = inputs.workload
    speed_before = host_speed()
    started = clock()
    service = Service(run_dir, workers=w.workers, env=_service_env(trace_dir))
    client = None
    try:
        client = repro.connect(service.wait_listening(), wire="binary", timeout=120.0)
        if w.workers > 1:
            service.adopt_fleet(client.fleet())
        handles = [client.create_session(w.n, w.k, seed=seed) for seed in inputs.engine_seeds]
        setup_s = clock() - started
        setup_speed = [speed_before, host_speed()]
        # One untimed op per session: first-row resets and lazy set-up
        # happen here, so the timed ops see the steady state.
        warmup = [push_and_wait(h, inputs.warmup(s)) for s, h in enumerate(handles)]
        out = {"setup_s": setup_s, "setup_speed": setup_speed, "warmup": warmup,
               "answers": run_ops(handles, inputs), "failovers": 0}
        if w.workers > 1:
            topology = client.fleet()
            out["failovers"] = int(topology["failovers"])
            service.adopt_fleet(topology)
        out["peak_rss_mb"] = peak_rss_mib(service.pids)
        service.stop(client)
        client = None
        return out
    except BaseException:
        service.kill()
        raise
    finally:
        if client is not None:
            client.close()


def traced_launch(inputs, run_dir: Path) -> dict:
    """One launch with spans in every service process and around the
    client calls; adds ``client_spans`` and ``service_spans``."""
    sys.path.insert(0, str(HOOK))
    import benchtrace
    from layers import load_spans

    trace_dir = run_dir.parent / f"{run_dir.name}-spans"
    trace_dir.mkdir(parents=True)
    benchtrace.install_client()
    out = launch(inputs, run_dir, trace_dir=trace_dir)
    out["client_spans"] = benchtrace.SPANS
    # A fleet is its router, its workers and the hot standby.
    workers = inputs.workload.workers
    out["service_spans"] = load_spans(trace_dir, 1 if workers == 1 else workers + 2)
    return out


def _scale(speeds) -> float:
    """Factor that turns a time measured at ``speeds`` (``host_speed``
    readings) into one at ``REFERENCE_SPEED``: a slow host's long time,
    times its low speed.  A reading's speed is the geometric mean of its
    tasks' rates relative to the reference, so no one kind of work
    (interpreter, NumPy, kernel) sets it alone."""
    import numpy as np

    relative = np.log(np.asarray(speeds) / REFERENCE_SPEED).mean(axis=1)
    return float(np.exp(relative).mean())


def end_to_end(inputs, expected, launches: list[dict]) -> dict:
    """End-to-end metrics over ``launches`` (each already checked: its
    ``ok`` array marks the ops that matched the reference).

    Every time is scaled to ``REFERENCE_SPEED`` by the host speed
    measured on either side of its slice, or of the set-up."""
    import numpy as np

    from loadgen import slices
    from verify import messages_per_row

    rates, p50, p90, speeds = [], [], [], []
    for out in launches:
        answers, ok = out["answers"], out["ok"]
        # A failed or wrong op misses every latency limit.
        latency = np.where(ok, answers.end - answers.start, np.inf)
        for ops in slices(inputs.ops):
            scale = _scale([v for i, v in answers.speed if ops[0] - 1 <= i <= ops[-1]])
            part = slice(ops.start, ops.stop)
            rows = inputs.workload.block * int(ok[part].sum())
            rates.append(rows / ((answers.end[ops[-1]] - answers.start[ops[0]]) * scale))
            p50.append(np.percentile(latency[part], 50, method="higher") * scale)
            p90.append(np.percentile(latency[part], 90, method="higher") * scale)
            speeds.append(scale)
    _log(f"{len(rates)} slices; host speed {np.mean(speeds):.3f} of the reference "
         f"(range {min(speeds):.3f}-{max(speeds):.3f})")
    ok_ops = sum(int(out["ok"].sum()) for out in launches)
    return {
        "rows_per_s": float(np.mean(rates)),
        "answer_ms_p50": float(np.mean(p50)) * 1e3,
        "answer_ms_p90": float(np.mean(p90)) * 1e3,
        "ok_share": ok_ops / (inputs.ops * len(launches)),
        "messages_per_row": messages_per_row(inputs, expected, launches[-1]["answers"]),
        "setup_s": statistics.median(
            out["setup_s"] * _scale(out["setup_speed"]) for out in launches),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in launches),
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _log(f"error: no repro package under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops the service processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import procs

    procs.adopt_orphans()
    try:
        return measure(args)
    finally:
        procs.stop_children()


def measure(args) -> int:
    """Set up, run and check the workload; print the result line."""
    import procs
    import reference
    from verify import check_answers, check_warmup, checker_is_live
    from workloads import WORKLOADS, make_inputs

    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    run_root = SCRATCH / f"run-{os.getpid()}"
    orphans = procs.service_orphans(SCRATCH)
    if orphans:
        _log(f"error: service processes from an earlier run are still alive: {orphans}")
        return 3
    try:
        started = time.monotonic()
        inputs = make_inputs(workload, args.seed)
        expected = reference.compute(inputs)
        _log(f"inputs and reference: {time.monotonic() - started:.1f} s; "
             f"measuring on CPU {pin_to_one_cpu()}")
        probe_before = host_probe()
        started = time.monotonic()
        launches = [launch(inputs, run_root / "launch0")]
        # Launch again while another launch of the mean length fits (and,
        # in a traced run, the traced launch after it).
        least, reserve = (1, 1) if args.trace else (MIN_LAUNCHES, 0)
        while (len(launches) < least
               or (time.monotonic() - started) * (len(launches) + 1 + reserve) / len(launches)
               <= args.seconds):
            launches.append(launch(inputs, run_root / f"launch{len(launches)}"))
        if args.trace:
            launches.append(traced_launch(inputs, run_root / "traced"))
        probe_after = host_probe()
    finally:
        leftover = procs.service_orphans(SCRATCH)
        shutil.rmtree(run_root, ignore_errors=True)
    if leftover:
        _log(f"error: service processes outlived the run: {leftover}")
        return 3

    for out in launches:
        out["ok"] = check_answers(inputs, expected, out["answers"])
        for error in out["answers"].errors[:5]:
            _log(f"failed {error}")
    correct = (
        all(out["ok"].all() and out["failovers"] == 0 for out in launches)
        and all(check_warmup(inputs, expected, out["warmup"]) for out in launches)
        and checker_is_live(inputs, expected, launches[-1]["answers"])
    )
    if args.trace:
        from layers import per_layer_metrics

        metrics, units, breakdown = per_layer_metrics(
            inputs, launches[-1],
            untraced=end_to_end(inputs, expected, launches[:-1]),
            traced=end_to_end(inputs, expected, launches[-1:]),
            probe=(probe_before + probe_after) / 2,
        )
        _log(breakdown)
    else:
        metrics, units = end_to_end(inputs, expected, launches), END_TO_END_UNITS
    attempted = inputs.ops * len(launches)
    ok_ops = sum(int(out["ok"].sum()) for out in launches)
    _log(f"{args.workload} seed={args.seed}: {len(launches)} launches x {inputs.ops} ops "
         f"({inputs.timed_rows} rows), host probe {probe_before:.0f}/{probe_after:.0f} "
         f"ops/s, correct={correct}")
    for name, value in metrics.items():
        _log(f"  {name:30s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": attempted - ok_ops,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(BENCH))
    raise SystemExit(main())
