"""Timed batch execution of alignment workloads.

The paper's CPU evaluation runs every aligner over the full candidate-pair
set with 48 threads.  :class:`BatchExecutor` is the equivalent batch layer
for this library: :meth:`BatchExecutor.run_alignments` times one batch of
GenASM alignments on any backend of the :mod:`repro.execution` registry —
``serial`` (a plain Python loop, the default and the reference),
``vectorized`` (the lockstep SoA engine from :mod:`repro.batch`),
``shared`` (the shared-memory pool of :mod:`repro.parallel.shm`),
``streaming`` (the wave pipeline), ``service`` (the multi-tenant
front-end) and anything registered later (``gpu``) — without this module
knowing about them.  Every backend produces byte-identical alignments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig

__all__ = [
    "Stopwatch",
    "BatchResult",
    "BatchExecutor",
]

R = TypeVar("R")


class Stopwatch:
    """Minimal wall-clock stopwatch with split support.

    ``elapsed`` accumulates across start/stop cycles, so one instance can
    time several non-contiguous phases of a run.
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("stopwatch was not started")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        """Forget any accumulated time (and any running split)."""
        self._start = None
        self.elapsed = 0.0


@dataclass
class BatchResult(Generic[R]):
    """Results plus timing of one batch run."""

    results: List[R]
    elapsed_seconds: float
    items: int
    workers: int = 1
    name: str = "batch"
    backend: str = "serial"
    metadata: dict = field(default_factory=dict)

    @property
    def items_per_second(self) -> float:
        """Throughput of the run."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.items / self.elapsed_seconds

    def speedup_over(self, other: "BatchResult") -> float:
        """Throughput ratio of this run over ``other`` (same item count assumed).

        Degenerate runs map to documented values instead of the ``nan`` /
        ``ZeroDivisionError`` the naive throughput ratio would produce.
        The ratio is defined over :attr:`items_per_second` (which reports
        ``inf`` for instantaneous runs, ``0.0`` for zero-item timed runs):
        equal throughputs — including two instantaneous runs
        (``inf / inf``) and two zero-item timed runs (``0 / 0``) — are
        indistinguishable and the speedup is defined as ``1.0``; when only
        ``other`` has zero throughput the ratio is ``inf``, and when only
        this run does it is ``0.0``.
        """
        mine = self.items_per_second
        theirs = other.items_per_second
        if mine == theirs:
            return 1.0
        if theirs == 0:
            return float("inf")
        return mine / theirs


class BatchExecutor:
    """Time batches of GenASM alignments on a registered backend.

    Parameters
    ----------
    workers:
        Process count for the multi-process backends (``shared``,
        ``streaming``, ``service``); single-process backends ignore it.
    backend:
        Default backend for :meth:`run_alignments` — any name in
        :func:`repro.execution.available_backends`.
    """

    def __init__(self, workers: int = 1, backend: str = "serial") -> None:
        from repro.execution import get_backend

        if workers < 1:
            raise ValueError("workers must be at least 1")
        get_backend(backend)  # raises ValueError for unregistered names
        self.workers = workers
        self.backend = backend

    def run_alignments(
        self,
        pairs: Sequence[Tuple[str, str]],
        config: Optional[GenASMConfig] = None,
        *,
        name: str = "genasm-batch",
        backend: Optional[str] = None,
        executor=None,
    ) -> BatchResult[Alignment]:
        """Align a batch of (pattern, text) pairs with GenASM.

        ``backend`` (defaulting to the executor's) names any entry in the
        :mod:`repro.execution` registry — ``serial``, ``vectorized``,
        ``shared``, ``streaming``, ``service``, plus whatever has been
        registered since.  Every backend produces identical alignments
        (CIGAR, edit distance, consumed text span) for the same pairs and
        config; they differ only in how the work moves (see
        :func:`repro.execution.capability_matrix`).  ``executor`` threads a
        reusable :class:`repro.parallel.shm.SharedMemoryExecutor` into the
        backends that can use one (``shared``, ``streaming``, ``service``).
        """
        from repro.execution import get_backend

        backend_name = backend if backend is not None else self.backend
        impl = get_backend(backend_name)
        config = config if config is not None else GenASMConfig()

        watch = Stopwatch()
        watch.start()
        results = impl.align_pairs(
            pairs, config, workers=self.workers, executor=executor
        )
        elapsed = watch.stop()
        from repro.batch.kernels import resolve_kernel_backend

        return BatchResult(
            results=list(results),
            elapsed_seconds=elapsed,
            items=len(pairs),
            workers=impl.effective_workers(self.workers),
            name=name,
            backend=backend_name,
            metadata={
                "config": config,
                # which hot-loop kernels the config resolves to here (the
                # graceful-degradation answer when "numba" was requested)
                "kernel_backend": resolve_kernel_backend(
                    config.kernel_backend, warn=False
                ),
            },
        )
