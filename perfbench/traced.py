"""The traced run: untraced and traced passes alternate for ``--seconds``.

Both kinds of pass go through the same :meth:`workloads.Runner.measure`;
a traced pass runs inside :meth:`ledger.Ledger.recording` on a runner
built with the ledger's tracer.  The ledger comes from the traced passes,
and their ratio to the untraced ones gives the tracing overhead.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Tuple

from repro import BatchAlignmentEngine, GenASMConfig
from repro.harness.dataset import build_paper_dataset
from repro.telemetry.trace import NULL_TRACER

import workloads
from ledger import (
    EXACT_COUNTS,
    PER_LAYER_UNITS,
    SERVICE_EXACT_COUNTS,
    CountDrift,
    Ledger,
    alignment_metrics,
    combine,
    layer_metrics,
)
from workloads import Outcome, Pass, PassFailed, Runner

#: Lane/wave counts of ``build_paper_dataset(96, 500, seed=7)`` on 256
#: lanes, as profiled in the ROADMAP baseline; the traced long_pacbio run
#: re-derives them.
BASELINE_READS = 96
BASELINE_SEED = 7
BASELINE_COUNTS = {
    "batch.dc.waves": 56,
    "batch.dc.retry_waves": 36,
    "batch.dc.row_steps": 1212,
    "batch.dc.lane_rows": 18441,
}


def _mean_latency(done: Pass) -> float:
    finite = [t for t in done.latencies if math.isfinite(t)]
    return statistics.mean(finite) if finite else math.inf


def pass_metrics(records, done: Pass) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    metrics = layer_metrics(records)
    metrics.update(alignment_metrics(done.alignments))
    metrics.update(done.layers)
    if "service.waves" in done.layers:
        metrics["service.engine_busy_frac"] = metrics["batch.engine.busy_s"] / done.seconds
    return metrics


def trace(
    build: Callable[..., Runner], seconds: float, ledger: Ledger
) -> Tuple[Dict[str, float], Tuple[str, ...], Outcome, Runner]:
    """Alternate untraced and traced passes; return the ledger of the traced ones.

    Returns ``(metrics, exact, outcome, runner)``: every per-layer metric
    (medians over traced passes, zero where the workload has no such
    layer), the names of the counts that must repeat exactly, the tally of
    every pass, and the untraced runner.  An exact count that differs
    between traced passes makes the run invalid and leaves no metrics.
    """
    plain = build(tracer=NULL_TRACER)
    outcome = Outcome()
    untraced: List[Pass] = []
    traced: List[Pass] = []
    records: List[list] = []
    per_pass: List[Dict[str, float]] = []
    try:
        instrumented = build(tracer=ledger.tracer)
        try:
            def both():
                untraced.append(plain.measure(outcome))
                done = instrumented.measure(outcome, ledger, records)
                per_pass.append(pass_metrics(records[-1], done))
                traced.append(done)
                # Checked and counted; kept, they would pile up pass by pass.
                untraced[-1].alignments = done.alignments = []

            workloads.run_passes(seconds, both, plain.minimum_passes)
        except PassFailed:
            pass  # counted as failed units by Runner.measure
        finally:
            instrumented.close()
    finally:
        plain.close()

    exact = SERVICE_EXACT_COUNTS if isinstance(plain, workloads.ServiceRunner) else EXACT_COUNTS
    if not traced:
        return {}, exact, outcome, plain
    try:
        metrics = combine(per_pass, exact)
    except CountDrift as drift:
        outcome.invalid.append(str(drift))
        return {}, exact, outcome, plain
    metrics.update(plain.setup_layers)
    metrics["trace.overhead_frac"] = (
        statistics.median(_mean_latency(p) for p in traced)
        / statistics.median(_mean_latency(p) for p in untraced)
        - 1.0
    )
    return {name: metrics.get(name, 0) for name in PER_LAYER_UNITS}, exact, outcome, plain


def baseline_counts() -> Dict[str, int]:
    """DC wave counts of one traced 256-lane pass over the baseline input."""
    config = GenASMConfig()
    data = build_paper_dataset(read_count=BASELINE_READS, read_length=500, seed=BASELINE_SEED)
    ledger = Ledger(config)
    engine = BatchAlignmentEngine(config, max_lanes=workloads.LANES)
    records: List[list] = []
    with ledger.recording(records):
        engine.align_pairs(data.pairs)
    metrics = layer_metrics(records[0])
    return {name: metrics[name] for name in BASELINE_COUNTS}
