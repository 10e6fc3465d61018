"""Batch execution utilities for the CPU evaluation.

:class:`BatchExecutor` times alignment batches on any backend of the
:mod:`repro.execution` registry — ``serial`` (Python loop), ``vectorized``
(the lockstep SoA engine from :mod:`repro.batch`), ``shared`` (zero-copy
shared-memory pool, :mod:`repro.parallel.shm`), ``streaming`` (the wave
pipeline) and ``service`` (the multi-tenant front-end) — all of which
produce identical alignments for the same pairs and config.
:class:`SharedMemoryExecutor` is the one place worker processes start: it
hosts the reference genome and minimizer index in shared segments built
once and ships waves as descriptors, not arrays, for the ``shared``
backend and for the pipeline's and service's multi-process align stage.
"""

from repro.parallel.executor import BatchExecutor, BatchResult, Stopwatch
from repro.parallel.shm import (
    SegmentLayout,
    SharedGenome,
    SharedMemoryExecutor,
    SharedMinimizerIndex,
    SharedSegment,
)

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "SegmentLayout",
    "SharedGenome",
    "SharedMemoryExecutor",
    "SharedMinimizerIndex",
    "SharedSegment",
    "Stopwatch",
]
