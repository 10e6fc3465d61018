"""Unified execution backend seam for batch alignment.

Before this module, three call sites each re-implemented backend dispatch
with their own ``if backend == ...`` ladders:
:meth:`repro.parallel.executor.BatchExecutor.run_alignments`,
:meth:`repro.mapping.mapper.Mapper.align_candidates`, and
:class:`repro.pipeline.StreamingPipeline`.  They now all resolve names
through one registry of :class:`ExecutionBackend` implementations, so a
new execution context (the ROADMAP's ``gpu`` item, a remote service) plugs
in once via :func:`register_backend` and is immediately reachable from
every entry point.

Every backend honours the same contract: given the same (pattern, text)
pairs and config it returns byte-identical alignments in input order —
the differential harness pins this across the registry.  What differs is
*how* the work moves, captured per backend in
:class:`BackendCapabilities` (see the README's capability matrix):

========== ============================== =========================== =============================
backend    copy semantics                 ordering                    traceback path
========== ============================== =========================== =============================
serial     none (in-process loop)         input order                 scalar bitvector walk
vectorized none (in-process SoA waves)    input order                 decision-word wave traceback
shared     shared-memory descriptors      input order (chunk concat)  decision-word wave per worker
streaming  in-process waves, or shared-   bounded reorder buffer      decision-word wave traceback
           memory descriptors with an     (in order; out-of-order
           executor or workers > 1        emission opt-in)
service    in-process waves shared        per-request input order     decision-word wave traceback
           across client requests         (futures resolve
           (shared-memory descriptors     independently)
           with an executor or
           workers > 1)
========== ============================== =========================== =============================

:class:`repro.parallel.shm.SharedMemoryExecutor` is the only place worker
processes start: ``shared`` dispatches to one, and ``streaming`` /
``service`` dispatch to a caller's executor or, with ``workers > 1``, one
their align stage builds and closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.alignment import Alignment, checked_pairs
from repro.core.config import GenASMConfig

__all__ = [
    "BackendCapabilities",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "SharedBackend",
    "StreamingBackend",
    "ServiceBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "capability_matrix",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend promises about how work and results move."""

    name: str
    #: How pair data crosses into the execution context.
    copy_semantics: str
    #: Result ordering guarantee relative to the input pair order.
    ordering: str
    #: Which traceback implementation produces the CIGARs.
    traceback: str
    #: Whether the backend spans multiple OS processes.
    multiprocess: bool
    summary: str


@runtime_checkable
class ExecutionBackend(Protocol):
    """One way of running a batch of GenASM alignments.

    Implementations are stateless dispatchers: all per-run context arrives
    as arguments, so one registered instance serves every caller.
    ``align_pairs`` must return alignments byte-identical to the serial
    reference, parallel to ``pairs``.
    """

    name: str
    capabilities: BackendCapabilities

    def align_pairs(
        self,
        pairs: Sequence[Tuple[str, str]],
        config: GenASMConfig,
        *,
        workers: int = 1,
        mapper=None,
        executor=None,
    ) -> List[Alignment]:
        ...

    def effective_workers(self, workers: int) -> int:
        """Process count the backend would actually use for ``workers``."""
        ...


# --------------------------------------------------------------------------- #
class SerialBackend:
    """Reference implementation: one scalar aligner in a Python loop."""

    name = "serial"
    capabilities = BackendCapabilities(
        name="serial",
        copy_semantics="none (in-process loop)",
        ordering="input order",
        traceback="scalar bitvector walk",
        multiprocess=False,
        summary="one GenASMAligner applied pair by pair; the ground truth",
    )

    def align_pairs(self, pairs, config, *, workers=1, mapper=None, executor=None):
        from repro.core.aligner import GenASMAligner

        aligner = GenASMAligner(config)
        return [aligner.align(pattern, text) for pattern, text in checked_pairs(pairs)]

    def effective_workers(self, workers: int) -> int:
        return 1


class VectorizedBackend:
    """In-process lockstep SoA engine (:mod:`repro.batch`)."""

    name = "vectorized"
    capabilities = BackendCapabilities(
        name="vectorized",
        copy_semantics="none (in-process SoA waves)",
        ordering="input order",
        traceback="decision-word wave traceback",
        multiprocess=False,
        summary="NumPy lockstep waves in one process; the offline mega-batch path",
    )

    def align_pairs(self, pairs, config, *, workers=1, mapper=None, executor=None):
        from repro.batch import BatchAlignmentEngine

        return BatchAlignmentEngine(config).align_pairs(pairs)

    def effective_workers(self, workers: int) -> int:
        return 1


class SharedBackend:
    """Shared-memory descriptor handoff to a warm spawn pool.

    Dispatches through :class:`repro.parallel.shm.SharedMemoryExecutor`:
    each wave's pairs are copied once into a per-wave shared segment that
    the worker decodes, and only layout metadata crosses the process
    boundary by pickle.  Pass an already-started
    ``executor`` to amortise pool spawn across calls (it is left running);
    otherwise a temporary one is created and torn down around the batch.
    """

    name = "shared"
    capabilities = BackendCapabilities(
        name="shared",
        copy_semantics="shared-memory descriptors (segments packed once per wave)",
        ordering="input order (contiguous chunks, concatenated)",
        traceback="decision-word wave traceback per worker",
        multiprocess=True,
        summary="per-wave pair segments to a warm pool; hosted genome/index attached",
    )

    def align_pairs(self, pairs, config, *, workers=1, mapper=None, executor=None):
        from repro.parallel.shm import SharedMemoryExecutor

        if executor is not None:
            if executor.config != config:
                raise ValueError(
                    "provided SharedMemoryExecutor was built with a different config"
                )
            return executor.run_alignments(pairs)
        if workers == 1:
            return VectorizedBackend().align_pairs(pairs, config)
        with SharedMemoryExecutor(workers=workers, config=config) as owned:
            return owned.run_alignments(pairs)

    def effective_workers(self, workers: int) -> int:
        return workers


class StreamingBackend:
    """Wave-accumulated streaming execution (:class:`StreamingPipeline`)."""

    name = "streaming"
    capabilities = BackendCapabilities(
        name="streaming",
        copy_semantics=(
            "in-process waves; shared-memory descriptors with an executor "
            "or workers > 1"
        ),
        ordering="bounded reorder buffer (in order; out-of-order emission opt-in)",
        traceback="decision-word wave traceback",
        multiprocess=True,
        summary="overlapped ingest/map/align dataflow; pairs flow through waves",
    )

    def align_pairs(self, pairs, config, *, workers=1, mapper=None, executor=None):
        from repro.pipeline import StreamingPipeline

        pipeline = StreamingPipeline(
            mapper, config, align_workers=workers, executor=executor
        )
        return pipeline.align_pairs(pairs)

    def effective_workers(self, workers: int) -> int:
        return workers


class ServiceBackend:
    """One-shot request through the alignment-as-a-service front-end.

    Routes the batch through :class:`repro.service.AlignmentService` as a
    single-tenant request — the same coalescing, routing and latency
    accounting a long-lived service applies, collapsed to one client.
    Real multi-client callers construct the service directly and keep it
    running; this backend exists so the unified seam (and its differential
    harness) covers the service path too.
    """

    name = "service"
    capabilities = BackendCapabilities(
        name="service",
        copy_semantics=(
            "in-process waves shared across client requests "
            "(shared-memory descriptors with an executor or workers > 1)"
        ),
        ordering="per-request input order (futures resolve independently)",
        traceback="decision-word wave traceback",
        multiprocess=True,
        summary="multi-tenant request coalescing over the streaming wave core",
    )

    def align_pairs(self, pairs, config, *, workers=1, mapper=None, executor=None):
        from repro.service import AlignmentService

        with AlignmentService(
            config, workers=workers, executor=executor, linger_seconds=None
        ) as service:
            return service.submit(pairs).result()

    def effective_workers(self, workers: int) -> int:
        return workers


# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend, *, replace: bool = False) -> None:
    """Add a backend to the registry under ``backend.name``.

    This is the seam future execution contexts (``gpu``, remote service)
    plug into: registering makes the name resolvable from
    ``BatchExecutor``, ``Mapper.align_candidates`` and the pipeline alike.
    """
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> ExecutionBackend:
    """Resolve a backend by name; raises ``ValueError`` for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"backend must be one of {available_backends()}, got {name!r}"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def capability_matrix() -> List[BackendCapabilities]:
    """Capability row for every registered backend (README's matrix)."""
    return [backend.capabilities for backend in _REGISTRY.values()]


for _backend in (
    SerialBackend(),
    VectorizedBackend(),
    SharedBackend(),
    StreamingBackend(),
    ServiceBackend(),
):
    register_backend(_backend)
del _backend
