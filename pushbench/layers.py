"""Per-layer metrics from the spans of a traced run.

Each metric belongs to one layer module and names the end-to-end figure
it should move (``LAYER_METRICS``), so a change to one layer can be
checked against the trace: the saving must appear in that layer's self
or waiting time along the blocking path.

Self time of a span is the time it ran minus the time its child spans
ran.  Only spans that start inside the timed window (first timed op's
push to last timed op's answer) count.  The timed window is
``trace.unattributed_ms_per_op`` plus every layer's self time plus the
generator's own time between ops plus its host-speed measurements
between slices: unattributed time is socket transit,
event-loop scheduling and interpreter work outside any wrapped call (it
goes negative where service processes overlap).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: name -> (unit, the end-to-end figure it should move)
LAYER_METRICS = {
    # repro.service.client
    "client.feed_ms_per_op": ("ms", "answer_ms_* on every workload"),
    "client.query_ms_per_op": ("ms", "answer_ms_* on every workload"),
    "client.reconnects": ("count", "answer_ms_* on every workload"),
    "loadgen.late_ms_per_op": ("ms", "none: the generator's own time between ops"),
    # repro.service.wire
    "codec.decode_us_per_row": ("us", "bulk_quiet rows_per_s"),
    "codec.encode_us_per_op": ("us", "bulk_quiet rows_per_s"),
    "codec.bytes_per_row": ("B/row", "bulk_quiet rows_per_s"),
    "codec.json_frame_share": ("ratio", "fleet_rowpush answer_ms_p50 (queries ride KIND_JSON)"),
    # repro.service.server
    "endpoint.self_ms_per_op": ("ms", "fleet_rowpush and bulk_quiet answer_ms_p50"),
    "endpoint.park_ms_per_op": ("ms", "fleet_rowpush and bulk_quiet answer_ms_p50"),
    # repro.service.manager
    "manager.feed_us_per_row": ("us", "bulk_quiet rows_per_s"),
    "manager.step_ms_per_op": ("ms", "fleet_rowpush answer_ms_p50; not bulk_churn"),
    "manager.sweeps_per_op": ("1/op", "fleet_rowpush answer_ms_p50; not bulk_churn"),
    "manager.rows_per_sweep": ("rows", "bulk_quiet rows_per_s"),
    "manager.checkpoint_ms_per_op": ("ms", "fleet_rowpush answer_ms_p50; not bulk_*"),
    "manager.backpressure_per_op": ("1/op", "answer_ms_* (must stay 0 in a closed loop)"),
    # repro.engine (IncrementalKernel)
    "kernel.busy_us_per_row": ("us", "bulk_churn rows_per_s and answer_ms_p50; not fleet"),
    "kernel.resets_per_row": ("1/row", "bulk_churn rows_per_s and answer_ms_p50; not fleet"),
    "kernel.quiet_share": ("ratio", "bulk_churn rows_per_s; not fleet"),
    "kernel.lookahead_share": ("ratio", "bulk_quiet and bulk_churn rows_per_s"),
    # repro.service.fleet
    "router.self_ms_per_op": ("ms", "fleet_rowpush only"),
    "router.worker_wait_ms_per_op": ("ms", "fleet_rowpush only"),
    "router.fresh_connects_per_op": ("1/op", "fleet_rowpush only"),
    "router.journal_rows_peak": ("rows", "fleet_rowpush only (durability exposure)"),
    "router.failovers": ("count", "none: must be 0"),
    # harness diagnostics
    "host.probe_ops_per_s": ("1/s", "none: shows a slow host episode"),
    "trace.overhead_share": ("ratio", "none: traced vs untraced rows_per_s"),
    "trace.unattributed_ms_per_op": ("ms", "none: accounting check of the trace"),
}


def load_spans(trace_dir: Path, expected_processes: int) -> dict:
    """Spans of every service process, keyed by pid."""
    files = sorted(trace_dir.glob("spans-*.json"))
    if len(files) != expected_processes:
        raise RuntimeError(
            f"traced run wrote spans for {len(files)} service processes, "
            f"expected {expected_processes}"
        )
    return {str(data["pid"]): data["spans"]
            for data in (json.loads(path.read_text()) for path in files)}


def _self_times(spans: list) -> list[float]:
    own = [span[4] if span else 0.0 for span in spans]
    for span in spans:
        if span and span[3] >= 0:
            own[span[3]] -= span[4]
    return own


class _Totals:
    """Per span name: calls, wall, active, self time, summed counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.wall = defaultdict(float)
        self.active = defaultdict(float)
        self.self = defaultdict(float)
        self.counts = defaultdict(lambda: [0, 0, 0])
        self.peak = defaultdict(int)

    def add(self, spans: list, window: tuple[float, float]) -> None:
        lo, hi = window
        for span, own in zip(spans, _self_times(spans)):
            if not span or not lo <= span[1] <= hi:
                continue
            name = span[0]
            self.calls[name] += 1
            self.wall[name] += span[2] - span[1]
            self.active[name] += span[4]
            self.self[name] += own
            for i, value in enumerate(span[5:8]):
                self.counts[name][i] += value
                if i == 0:
                    self.peak[name] = max(self.peak[name], value)

    def total(self, table, *names) -> float:
        return sum(table[name] for name in names)

    def layer_self(self) -> dict[str, float]:
        layers = defaultdict(float)
        for name, value in self.self.items():
            if name != "client.recv":  # waiting on the service, not client work
                layers[name.split(".")[0]] += value
        return layers


def _client_frames(spans: list, window: tuple[float, float]) -> tuple[int, int, int]:
    """(frames, KIND_JSON frames, bytes) on the client's link, both ways."""
    from repro.service.wire import KIND_JSON

    frames = json_frames = size = 0
    for span in spans:
        if span and span[0] in ("codec.encode_request", "client.recv") \
                and window[0] <= span[1] <= window[1]:
            frames += 1
            json_frames += span[6] == KIND_JSON
            size += span[5]
    return frames, json_frames, size


def per_layer_metrics(inputs, launch: dict, *, untraced: dict, traced: dict,
                      probe: float) -> tuple[dict, dict, str]:
    """Every ``LAYER_METRICS`` value for one traced launch, their units,
    and a one-line breakdown of self time per op by span name."""
    answers = launch["answers"]
    window = (float(answers.start[0]), float(answers.end[-1]))
    totals = _Totals()
    totals.add(launch["client_spans"], window)
    for spans in launch["service_spans"].values():
        totals.add(spans, window)
    ops, rows = inputs.ops, inputs.timed_rows
    t = totals
    ms = 1e3 / ops
    # The generator's time between ops, less its host-speed measurements.
    gaps = float((answers.start[1:] - answers.end[:-1]).sum()) - answers.probe_s
    frames, json_frames, wire_bytes = _client_frames(launch["client_spans"], window)
    kernel = ("kernel.step", "kernel.quiet_step", "kernel.observe_many")
    kernel_rows = sum(t.counts[name][0] for name in kernel)
    sweeps = t.calls["manager.step"]
    workers = ("router.worker", "router.worker_fresh")
    layer_self = t.layer_self()
    metrics = {
        "client.feed_ms_per_op": t.wall["client.feed"] * ms,
        "client.query_ms_per_op": t.wall["client.query"] * ms,
        "client.reconnects": t.calls["client.reconnect"],
        "loadgen.late_ms_per_op": gaps * ms,
        "codec.decode_us_per_row": t.self["codec.decode_feed"] * 1e6 / rows,
        "codec.encode_us_per_op": t.total(
            t.self, "codec.encode_ack", "codec.encode_json", "codec.encode_request") * 1e6 / ops,
        "codec.bytes_per_row": wire_bytes / rows,
        "codec.json_frame_share": json_frames / max(1, frames),
        "endpoint.self_ms_per_op": layer_self["endpoint"] * ms,
        "endpoint.park_ms_per_op": (t.wall["endpoint.query"] - t.active["endpoint.query"]) * ms,
        "manager.feed_us_per_row": t.total(
            t.self, "manager.feed", "manager.feed_many") * 1e6 / rows,
        "manager.step_ms_per_op": t.self["manager.step"] * ms,
        "manager.sweeps_per_op": sweeps / ops,
        "manager.rows_per_sweep": t.counts["manager.step"][0] / max(1, sweeps),
        "manager.checkpoint_ms_per_op": t.self["manager.checkpoint"] * ms,
        "manager.backpressure_per_op": (t.counts["manager.feed"][1]
                                        + t.counts["manager.feed_many"][1]) / ops,
        "kernel.busy_us_per_row": t.total(t.self, *kernel) * 1e6 / max(1, kernel_rows),
        "kernel.resets_per_row": sum(t.counts[n][2] for n in kernel) / max(1, kernel_rows),
        "kernel.quiet_share": 1.0 - sum(t.counts[n][1] for n in kernel) / max(1, kernel_rows),
        "kernel.lookahead_share": t.counts["kernel.observe_many"][0] / max(1, kernel_rows),
        "router.self_ms_per_op": layer_self["router"] * ms,
        "router.worker_wait_ms_per_op": (t.total(t.wall, *workers)
                                         - t.total(t.active, *workers)) * ms,
        "router.fresh_connects_per_op": t.calls["router.worker_fresh"] / ops,
        "router.journal_rows_peak": t.peak["router.journal"],
        "router.failovers": launch["failovers"],
        "host.probe_ops_per_s": probe,
        "trace.overhead_share": 1.0 - traced["rows_per_s"] / untraced["rows_per_s"],
        "trace.unattributed_ms_per_op": (window[1] - window[0] - answers.probe_s - gaps
                                         - sum(layer_self.values())) * ms,
    }
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    top = sorted(t.self.items(), key=lambda item: -item[1])[:8]
    breakdown = "self ms/op: " + ", ".join(f"{name} {value * ms:.3f}" for name, value in top)
    return metrics, units, breakdown
