"""The traced run: an outside-in per-layer ledger built from span records.

The program is not edited.  For the length of one traced pass,
:class:`Ledger` wraps the public functions each layer is entered through
and records one :class:`repro.telemetry.trace.Tracer` span per call, with
the call's counts as span attributes.  The engine binds its DC and
traceback kernels into ``repro.batch.engine`` at import, so those names
are wrapped there; methods are wrapped on their classes.  Everything is
restored when the pass ends, so untraced passes run the original code.

A layer's *self* time is its spans' duration minus the part covered by
spans nested inside them on the same thread (:func:`self_times`).
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

import repro.batch.engine as batch_engine
import repro.core.genasm_tb as genasm_tb
import repro.pipeline.pipeline as pipeline_module
from repro.batch import BatchAlignmentEngine
from repro.batch.engine import WaveDCState
from repro.batch.soa import SoAWave
from repro.io import SamSink
from repro.mapping.mapper import Mapper
from repro.telemetry.trace import SpanRecord, Tracer

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "batch.engine.busy_s": "s",
    "batch.engine.self_s": "s",
    "batch.soa.build_s": "s",
    "batch.dc.waves": "count",
    "batch.dc.retry_waves": "count",
    "batch.dc.busy_s": "s",
    "batch.dc.retry_s": "s",
    "batch.dc.row_steps": "count",
    "batch.dc.lane_rows": "count",
    "batch.dc.lanes_per_step": "lanes",
    "batch.tb.decisions_s": "s",
    "batch.tb.walk_s": "s",
    "batch.tb.walk_steps": "count",
    "batch.tb.steps_saved": "count",
    "batch.tb.scalar_s": "s",
    "batch.tb.table_s": "s",
    "batch.tb.scalar_lanes": "count",
    "batch.tb.lockstep_lanes": "count",
    "core.windows": "count",
    "core.rows_computed": "count",
    "core.dp_accesses": "count",
    "core.dp_bytes": "bytes",
    "core.peak_window_bytes": "bytes",
    "core.stored_bytes": "bytes",
    "core.serial_bases_per_s": "bases/s",
    "mapping.index_s": "s",
    "mapping.busy_s": "s",
    "mapping.region_s": "s",
    "mapping.reads": "count",
    "mapping.candidates": "count",
    "ingest.busy_s": "s",
    "ingest.reads": "count",
    "pipeline.stage.map_s": "s",
    "pipeline.stage.align_s": "s",
    "pipeline.waves": "count",
    "pipeline.wave_fill": "ratio",
    "pipeline.max_pending": "count",
    "pipeline.max_reorder": "count",
    "io.emit_s": "s",
    "io.records": "count",
    "io.sam_bytes": "bytes",
    "service.waves": "count",
    "service.lanes_per_wave": "lanes",
    "service.flushes.timeout": "count",
    "service.flushes.idle": "count",
    "service.flushes.size": "count",
    "service.engine_busy_frac": "ratio",
    "service.inflight_hw": "count",
    "service.gen_lag_ms": "ms",
    "service.gen_lag_max_ms": "ms",
    "trace.overhead_frac": "ratio",
}

#: Counts that must repeat exactly across passes and runs of one seed.
EXACT_COUNTS = (
    "core.windows",
    "core.rows_computed",
    "core.dp_accesses",
    "core.dp_bytes",
    "core.peak_window_bytes",
    "core.stored_bytes",
    "batch.dc.waves",
    "batch.dc.retry_waves",
    "batch.dc.row_steps",
    "batch.dc.lane_rows",
    "batch.tb.walk_steps",
    "batch.tb.steps_saved",
    "batch.tb.scalar_lanes",
    "batch.tb.lockstep_lanes",
    "mapping.candidates",
    "io.records",
)

#: Of those, the ones a service run repeats: wave composition (and so
#: every ``batch.*`` count) depends on request timing there.
SERVICE_EXACT_COUNTS = tuple(name for name in EXACT_COUNTS if name.startswith("core."))

#: Spans this ledger records.  Self time is computed over these alone:
#: the program's own spans (``stage.*``, ``service.request``, ...) may
#: cross threads or overlap them partially, so they are exported but never
#: taken as anyone's parent.
LEDGER_SPANS = frozenset(
    {
        "bench.pass",
        "batch.engine",
        "batch.soa.build",
        "batch.dc.wave",
        "batch.tb.decisions",
        "batch.tb.walk",
        "batch.tb.scalar",
        "batch.tb.table",
        "mapping.map",
        "mapping.region",
        "ingest.read",
        "ingest.qualities",
        "io.emit",
    }
)

_MISSING = object()


class Ledger:
    """Wraps each layer's public entry points with spans while recording."""

    def __init__(self, config) -> None:
        self.config = config
        self.tracer = Tracer(process_name="perfbench")
        #: every record of every traced pass, for the Chrome-trace export
        self.records: List[SpanRecord] = []
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------ #
    def _wrap(self, owner, name: str, span: str, attrs: Optional[Callable] = None) -> None:
        original = getattr(owner, name)
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = tracer.clock()
            result = original(*args, **kwargs)
            end = tracer.clock()
            extra = attrs(args, kwargs, result) if attrs is not None else {}
            tracer.record_span(span, start=start, end=end, **extra)
            return result

        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, traced)

    def _wrap_stream_reads(self) -> None:
        original = pipeline_module.stream_reads
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            records = original(*args, **kwargs)
            while True:
                start = tracer.clock()
                record = next(records, None)
                tracer.record_span(
                    "ingest.read", start=start, end=tracer.clock(), reads=int(record is not None)
                )
                if record is None:
                    return
                yield record

        self._undo.append((pipeline_module, "stream_reads", original))
        pipeline_module.stream_reads = traced

    def install(self) -> None:
        k = self.config.k

        def dc_attrs(args, kwargs, state):
            wave = args[0]
            return {
                "lanes": wave.lanes,
                "retry": int(int(wave.k.max()) > k),
                "row_steps": len(state.stored_rows),
                "lane_rows": int(state.rows_computed.sum()),
            }

        def walk_attrs(args, kwargs, result):
            active = kwargs.get("active")
            return {"lanes": args[0].lanes if active is None else int(np.count_nonzero(active))}

        self._wrap(BatchAlignmentEngine, "align_pairs", "batch.engine")
        self._wrap(SoAWave, "__init__", "batch.soa.build")
        self._wrap(batch_engine, "run_dc_wave_state", "batch.dc.wave", dc_attrs)
        self._wrap(batch_engine, "build_wave_decisions", "batch.tb.decisions")
        self._wrap(batch_engine, "lockstep_traceback", "batch.tb.walk", walk_attrs)
        self._wrap(genasm_tb, "genasm_traceback", "batch.tb.scalar")
        self._wrap(WaveDCState, "table", "batch.tb.table")
        self._wrap(
            Mapper, "map_sequence", "mapping.map", lambda a, k, r: {"candidates": len(r)}
        )
        self._wrap(Mapper, "candidate_region_sequence", "mapping.region")
        self._wrap(SamSink, "write", "io.emit")
        self._wrap(SamSink, "finish", "io.emit")
        self._wrap_stream_reads()

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    @contextmanager
    def recording(self, pass_records: List[List[SpanRecord]]):
        """Trace one pass; its records are appended to ``pass_records``."""
        self.tracer.drain()
        self.install()
        try:
            with self.tracer.span("bench.pass"):
                yield
        finally:
            self.uninstall()
            records = self.tracer.drain()
            pass_records.append(records)
            self.records.extend(records)


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
def self_times(records: Iterable[SpanRecord]) -> Dict[int, float]:
    """Self time per span (keyed by ``id(record)``): duration minus children."""
    spans = [r for r in records if r.kind == "span" and r.name in LEDGER_SPANS]
    child = {id(r): 0.0 for r in spans}
    by_thread: Dict[int, List[SpanRecord]] = {}
    for record in spans:
        by_thread.setdefault(record.tid, []).append(record)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda r: (r.start, -r.end))
        stack: List[SpanRecord] = []
        for record in thread_spans:
            while stack and stack[-1].end <= record.start:
                stack.pop()
            if stack:
                child[id(stack[-1])] += record.duration
            stack.append(record)
    return {id(r): r.duration - child[id(r)] for r in spans}


def layer_metrics(records: List[SpanRecord]) -> Dict[str, float]:
    """Span-derived metrics of one traced pass (every layer, zero if unused)."""
    own = self_times(records)
    busy: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    count: Dict[str, int] = {}
    attr: Dict[str, float] = {}
    retry_s = 0.0
    for r in records:
        if id(r) not in own:
            continue
        busy[r.name] = busy.get(r.name, 0.0) + r.duration
        self_s[r.name] = self_s.get(r.name, 0.0) + own[id(r)]
        count[r.name] = count.get(r.name, 0) + 1
        for key, value in r.attrs.items():
            if isinstance(value, (int, float)):
                attr[f"{r.name}.{key}"] = attr.get(f"{r.name}.{key}", 0) + value
        if r.name == "batch.dc.wave" and r.attrs.get("retry"):
            retry_s += r.duration
    row_steps = attr.get("batch.dc.wave.row_steps", 0)
    lane_rows = attr.get("batch.dc.wave.lane_rows", 0)
    return {
        "batch.engine.busy_s": busy.get("batch.engine", 0.0),
        "batch.engine.self_s": self_s.get("batch.engine", 0.0),
        "batch.soa.build_s": busy.get("batch.soa.build", 0.0),
        "batch.dc.waves": count.get("batch.dc.wave", 0),
        "batch.dc.retry_waves": attr.get("batch.dc.wave.retry", 0),
        "batch.dc.busy_s": busy.get("batch.dc.wave", 0.0),
        "batch.dc.retry_s": retry_s,
        "batch.dc.row_steps": row_steps,
        "batch.dc.lane_rows": lane_rows,
        "batch.dc.lanes_per_step": lane_rows / row_steps if row_steps else 0.0,
        "batch.tb.decisions_s": busy.get("batch.tb.decisions", 0.0),
        "batch.tb.walk_s": busy.get("batch.tb.walk", 0.0),
        "batch.tb.scalar_s": busy.get("batch.tb.scalar", 0.0),
        "batch.tb.table_s": busy.get("batch.tb.table", 0.0),
        "batch.tb.scalar_lanes": count.get("batch.tb.scalar", 0),
        "batch.tb.lockstep_lanes": attr.get("batch.tb.walk.lanes", 0),
        "mapping.busy_s": busy.get("mapping.map", 0.0),
        "mapping.region_s": busy.get("mapping.region", 0.0),
        "mapping.reads": count.get("mapping.map", 0),
        "mapping.candidates": attr.get("mapping.map.candidates", 0),
        "ingest.busy_s": busy.get("ingest.read", 0.0) + busy.get("ingest.qualities", 0.0),
        "ingest.reads": attr.get("ingest.read.reads", 0),
        "io.emit_s": busy.get("io.emit", 0.0),
    }


def alignment_metrics(alignments) -> Dict[str, float]:
    """The paper's footprint/access counters plus walk counts, from metadata."""
    def total(key):
        return sum(a.metadata[key] for a in alignments)

    return {
        "core.windows": total("windows"),
        "core.rows_computed": total("rows_computed"),
        "core.dp_accesses": total("dp_accesses"),
        "core.dp_bytes": total("dp_bytes"),
        "core.peak_window_bytes": max((a.metadata["peak_window_bytes"] for a in alignments), default=0),
        "core.stored_bytes": total("total_stored_bytes"),
        "batch.tb.walk_steps": total("tb_walk_steps"),
        "batch.tb.steps_saved": total("tb_walk_steps_saved"),
    }


def combine(passes: List[Dict[str, float]], exact: Iterable[str]) -> Dict[str, float]:
    """Median of each metric over traced passes; exact counts must agree.

    Raises :class:`CountDrift` naming every count that differed between
    passes of the same inputs.
    """
    exact = set(exact)
    drift = sorted(
        name for name in exact if len({p.get(name) for p in passes}) > 1
    )
    if drift:
        raise CountDrift(
            "counts drifted between passes of one seed: "
            + ", ".join(f"{n}={[p.get(n) for p in passes]}" for n in drift)
        )
    return {
        name: passes[0][name] if name in exact else statistics.median(p[name] for p in passes)
        for name in passes[0]
    }


class CountDrift(RuntimeError):
    """An exact ledger count differed between runs of one seed."""
