"""Declarative experiment-grid runner with a persistent perf trajectory.

The E-series experiments were, until this module, hand-rolled one-off
scripts: each smoke picked its own workload, backend and wave size, timed
one configuration and printed numbers.  ``repro.harness.grid`` turns that
into *declared* sweeps (py_experimenter-style: the experiment is a config,
not a script):

* :class:`ExperimentGrid` — the declarative spec: named workloads
  (:func:`~repro.harness.dataset.build_paper_dataset` parameters) crossed
  with execution backends, GenASM window sizes and wave sizes.  Build one
  in code or from a plain dict/JSON via :meth:`ExperimentGrid.from_dict`.
* :class:`GridRunner` — executes every cell of the grid, checks each
  cell's alignments against the serial
  :class:`~repro.core.aligner.GenASMAligner` (the registry's equivalence
  contract — a fast cell that returns different CIGARs is a bug, not a
  win), and appends one provenance-stamped row per cell
  (date, git SHA, config fingerprint) to a ``BENCH_*.json`` trajectory
  through :class:`repro.telemetry.bench.BenchRecorder`.
* the **gate** — a grid may declare a throughput ratio between two of its
  cells (e.g. streaming vs serial on the same workload); :meth:`GridRunner.check`
  evaluates it against the ``grid`` section's regression floor in the
  bench file (:meth:`BenchRecorder.check_ratio` with ``section=``), which
  is what the ``e4_grid`` CI smoke fails on.

Example::

    grid = ExperimentGrid.from_dict({
        "name": "e4_smoke",
        "workloads": {"long_read": {"read_count": 12, "read_length": 600}},
        "backends": ["serial", "vectorized", "streaming"],
        "window_sizes": [64],
        "wave_sizes": [128],
        "gate": {
            "metric": "pairs_per_second",
            "cell": {"backend": "vectorized"},
            "reference_cell": {"backend": "serial"},
        },
    })
    rows = GridRunner(grid, "BENCH_pipeline.json").run()
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.aligner import GenASMAligner
from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig
from repro.harness.dataset import AlignmentWorkload, build_paper_dataset
from repro.telemetry.bench import BenchRecorder

__all__ = ["ExperimentGrid", "GridRunner", "GridCell"]

#: Axis names, in the (deterministic) order cells are enumerated.
GRID_AXES = ("workload", "backend", "window_size", "wave_size")

_SPEC_KEYS = {
    "name",
    "workloads",
    "backends",
    "window_sizes",
    "wave_sizes",
    "history_key",
    "section",
    "gate",
}


@dataclass(frozen=True)
class GridCell:
    """One point of the sweep: workload × backend × window × wave size."""

    workload: str
    backend: str
    window_size: int
    wave_size: int

    def matches(self, selector: Mapping[str, object]) -> bool:
        """Whether this cell matches a (partial) axis-value selector."""
        return all(getattr(self, axis) == value for axis, value in selector.items())


@dataclass
class ExperimentGrid:
    """A declared experiment sweep (the config half of the runner).

    Attributes
    ----------
    name:
        Grid identifier, recorded in every row.
    workloads:
        ``{workload_name: build_paper_dataset kwargs}`` — each named
        workload is built once and shared by all its cells.
    backends:
        Execution backends to sweep (``serial``/``vectorized``/
        ``streaming``/... — any :mod:`repro.execution` registry name).
        ``wave_size`` reaches the vectorized engine as ``max_lanes`` and
        the streaming pipeline as its accumulator wave size; the other
        backends (``serial``, ``shared``, ``service``) record the axis
        value but execute identically across it.
    window_sizes:
        GenASM ``window_size`` values; each derives a config via
        :meth:`config_for` (overlap clamped below the window).
    wave_sizes:
        Lanes per dispatched wave.
    history_key:
        Bench-file history the rows append to (must end in ``history``).
    section:
        Bench-file section holding this grid's gate config
        (``regression_threshold`` + ``baseline.ratio``).
    gate:
        Optional declared regression gate:
        ``{"metric": <row field>, "cell": <selector>, "reference_cell":
        <selector>}``.  The gate ratio is ``metric(cell) /
        metric(reference_cell)``; selectors are partial axis dicts that
        must match exactly one cell each.
    """

    name: str
    workloads: Dict[str, Dict[str, object]]
    backends: Sequence[str] = ("vectorized",)
    window_sizes: Sequence[int] = (64,)
    wave_sizes: Sequence[int] = (128,)
    history_key: str = "grid_history"
    section: str = "grid"
    gate: Optional[Dict[str, object]] = None
    base_config: GenASMConfig = field(default_factory=GenASMConfig)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("grid needs at least one workload")
        if not self.history_key.endswith("history"):
            raise ValueError(
                f"history_key must end in 'history', got {self.history_key!r}"
            )
        if self.gate is not None:
            missing = {"metric", "cell", "reference_cell"} - set(self.gate)
            if missing:
                raise ValueError(f"gate spec is missing {sorted(missing)}")

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "ExperimentGrid":
        """Build a grid from a plain (JSON-friendly) mapping."""
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown grid spec keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_SPEC_KEYS)}"
            )
        if "name" not in spec or "workloads" not in spec:
            raise ValueError("grid spec needs 'name' and 'workloads'")
        kwargs = dict(spec)
        kwargs["workloads"] = {
            str(name): dict(params) for name, params in dict(spec["workloads"]).items()
        }
        return cls(**kwargs)

    # ------------------------------------------------------------------ #
    def cells(self) -> List[GridCell]:
        """Every cell of the sweep, in deterministic axis order."""
        return [
            GridCell(workload, backend, int(window), int(wave))
            for workload, backend, window, wave in product(
                self.workloads, self.backends, self.window_sizes, self.wave_sizes
            )
        ]

    def config_for(self, window_size: int) -> GenASMConfig:
        """The GenASM config of one window-size axis value."""
        from dataclasses import replace

        overlap = min(self.base_config.window_overlap, max(0, window_size - 1))
        return replace(self.base_config, window_size=window_size, window_overlap=overlap)

    def select_cell(self, selector: Mapping[str, object]) -> GridCell:
        """The unique cell matching a partial selector (gate resolution)."""
        bad_axes = set(selector) - set(GRID_AXES)
        if bad_axes:
            raise ValueError(f"unknown grid axes in selector: {sorted(bad_axes)}")
        matches = [cell for cell in self.cells() if cell.matches(selector)]
        if len(matches) != 1:
            raise ValueError(
                f"selector {dict(selector)!r} matches {len(matches)} cells; "
                "gate selectors must match exactly one"
            )
        return matches[0]


def _same_alignments(got: Sequence[Alignment], want: Sequence[Alignment]) -> bool:
    """The registry's equivalence contract, as the smokes check it."""
    if len(got) != len(want):
        return False
    return all(
        str(a.cigar) == str(b.cigar)
        and a.edit_distance == b.edit_distance
        and a.text_end == b.text_end
        for a, b in zip(got, want)
    )


class GridRunner:
    """Execute an :class:`ExperimentGrid` and persist its trajectory.

    ``recorder`` may be a :class:`~repro.telemetry.bench.BenchRecorder`
    or a bench-file path.  Workloads and per-(workload, window) reference
    alignments are cached across cells, so the sweep pays mapping and the
    reference run once per combination, not once per cell.
    """

    def __init__(
        self,
        grid: ExperimentGrid,
        recorder: Union[BenchRecorder, str, Path],
    ) -> None:
        self.grid = grid
        self.recorder = (
            recorder
            if isinstance(recorder, BenchRecorder)
            else BenchRecorder(recorder)
        )
        self._workloads: Dict[str, AlignmentWorkload] = {}
        self._references: Dict[Tuple[str, int], List[Alignment]] = {}

    # ------------------------------------------------------------------ #
    def _workload(self, name: str) -> AlignmentWorkload:
        if name not in self._workloads:
            self._workloads[name] = build_paper_dataset(**self.grid.workloads[name])
        return self._workloads[name]

    def _reference(self, cell: GridCell, config: GenASMConfig) -> List[Alignment]:
        """Serial-aligner alignments for equivalence checking."""
        key = (cell.workload, cell.window_size)
        if key not in self._references:
            aligner = GenASMAligner(config)
            self._references[key] = [
                aligner.align(pattern, text)
                for pattern, text in self._workload(cell.workload).pairs
            ]
        return self._references[key]

    def _run_cell(
        self, cell: GridCell, config: GenASMConfig
    ) -> Tuple[List[Alignment], float]:
        """Align the cell's workload through its backend; returns (alignments, seconds)."""
        pairs = self._workload(cell.workload).pairs
        if cell.backend == "streaming":
            from repro.pipeline import StreamingPipeline

            pipeline = StreamingPipeline(
                config=config, wave_size=cell.wave_size, name=f"{self.grid.name}-grid"
            )
            start = time.perf_counter()
            alignments = pipeline.align_pairs(pairs)
            return alignments, time.perf_counter() - start
        if cell.backend == "vectorized":
            from repro.batch.engine import BatchAlignmentEngine

            engine = BatchAlignmentEngine(
                config, max_lanes=cell.wave_size, name=f"{self.grid.name}-grid"
            )
            start = time.perf_counter()
            alignments = engine.align_pairs(pairs)
            return alignments, time.perf_counter() - start
        from repro.execution import get_backend

        impl = get_backend(cell.backend)
        start = time.perf_counter()
        alignments = impl.align_pairs(pairs, config)
        return alignments, time.perf_counter() - start

    # ------------------------------------------------------------------ #
    def run(self, *, append: bool = True, save: bool = True) -> List[Dict[str, object]]:
        """Run every cell; returns one row dict per cell (axis order).

        Each row carries the cell's axis values, pair count, wall seconds,
        ``pairs_per_second``, mean alignment identity and the
        ``identical`` equivalence flag against the serial reference.  A
        cell that raises gets a row with its axis values, ``identical:
        False`` and an ``error`` string instead, and the sweep goes on.
        With ``append`` (default) rows are also written to the grid's
        history through the recorder, provenance-stamped; ``save``
        persists the bench file afterwards.
        """
        rows: List[Dict[str, object]] = []
        for cell in self.grid.cells():
            config = self.grid.config_for(cell.window_size)
            row: Dict[str, object] = {
                "grid": self.grid.name,
                "workload": cell.workload,
                "backend": cell.backend,
                "window_size": cell.window_size,
                "wave_size": cell.wave_size,
            }
            try:
                alignments, seconds = self._run_cell(cell, config)
                reference = self._reference(cell, config)
            except Exception as exc:  # one failing cell must not abort the sweep
                row.update(identical=False, error=f"{type(exc).__name__}: {exc}")
            else:
                pairs = len(alignments)
                identity = (
                    sum(a.identity for a in alignments) / pairs if pairs else 1.0
                )
                row.update(
                    pairs=pairs,
                    seconds=round(seconds, 4),
                    pairs_per_second=round(pairs / max(1e-9, seconds), 2),
                    mean_identity=round(identity, 4),
                    identical=_same_alignments(alignments, reference),
                )
            if append:
                self.recorder.append(self.grid.history_key, row, config=config)
            rows.append(row)
        if save and append:
            self.recorder.save()
        return rows

    def check(self, rows: Sequence[Mapping[str, object]]) -> Dict[str, object]:
        """Evaluate the grid's declared gate over a :meth:`run` result.

        Returns the :meth:`BenchRecorder.check_ratio` verdict augmented
        with the gate's cells and metric values; ``{"ok": True}`` -shaped
        when the grid declares no gate.  Also fails (``ok=False``) when
        any cell raised or was not identical to the reference — equivalence
        is part of the gate.  A raised gate cell has ``value``/``ratio`` None.
        """
        broken = [row for row in rows if not row.get("identical", False)]
        if self.grid.gate is None:
            return {"ok": not broken, "gate": None, "non_identical": len(broken)}
        metric = str(self.grid.gate["metric"])
        cell = self.grid.select_cell(self.grid.gate["cell"])
        reference = self.grid.select_cell(self.grid.gate["reference_cell"])

        def metric_of(target: GridCell) -> Optional[float]:
            for row in rows:
                if all(row.get(axis) == getattr(target, axis) for axis in GRID_AXES):
                    if "error" in row:
                        return None  # a failed cell measured nothing
                    value = row.get(metric)
                    if not isinstance(value, (int, float)) or isinstance(value, bool):
                        raise ValueError(
                            f"gate metric {metric!r} is not numeric in row for {target}"
                        )
                    return float(value)
            raise ValueError(f"no row for gate cell {target}")

        numerator = metric_of(cell)
        denominator = metric_of(reference)
        if numerator is None or denominator is None:
            verdict: Dict[str, object] = {"ok": False, "ratio": None}
        else:
            ratio = numerator / max(1e-9, denominator)
            verdict = self.recorder.check_ratio(ratio, section=self.grid.section)
        verdict.update(
            {
                "ok": bool(verdict["ok"]) and not broken,
                "gate": {
                    "metric": metric,
                    "cell": dict(self.grid.gate["cell"]),
                    "reference_cell": dict(self.grid.gate["reference_cell"]),
                    "value": numerator,
                    "reference_value": denominator,
                },
                "non_identical": len(broken),
            }
        )
        return verdict
