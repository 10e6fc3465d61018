"""Align stage: dispatch pre-built waves to the vectorized engine.

With ``workers == 1`` each wave runs on an in-process
:class:`repro.batch.BatchAlignmentEngine`.  With ``workers > 1`` waves are
sharded across a spawn-context process pool: each worker receives the
(picklable) config plus the wave's pre-built (pattern, text) pairs and runs
the engine on exactly that wave — unlike the historical ``process`` backend
of :class:`repro.parallel.executor.BatchExecutor`, which shipped individual
pairs and rebuilt a scalar aligner per worker, workers here execute whole
lockstep waves, so the vectorized path and multiprocessing compose instead
of competing.  With an ``executor``
(:class:`repro.parallel.shm.SharedMemoryExecutor`) the pickling goes away
too: each wave is packed into a shared-memory segment and only its layout
descriptor crosses the process boundary, into workers holding warm,
already-constructed engines.  Short-read (``window_size > 64``)
configurations dispatch the same way: the engine's multi-word lanes mean
no per-wave scalar fallback, and the accumulator feeding this stage groups
lanes by the engine's windows × words/lane cost model
(:meth:`repro.batch.BatchAlignmentEngine.expected_work`).

Results are collected in wave submission order behind a bounded in-flight
window; the pipeline's reorder buffer (keyed by global candidate ordinal)
restores input order regardless.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.batch.engine import BatchAlignmentEngine
from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig
from repro.pipeline.window import InflightWindow
from repro.telemetry.trace import get_tracer

__all__ = ["AlignStage"]


def _align_wave(
    config: GenASMConfig, engine_kwargs: dict, pairs: List[Tuple[str, str]]
) -> List[Alignment]:
    """Process-pool worker: align one pre-built wave with a fresh engine.

    Module-level so it pickles under the multiprocessing spawn context;
    only the config, the engine options and the wave's sequence pairs cross
    the process boundary.
    """
    return BatchAlignmentEngine(config, **engine_kwargs).align_pairs(pairs)


class AlignStage:
    """Submit/collect interface over wave-granular alignment execution.

    Every wave, however narrow, is traced back by the engine's lockstep
    decision-word walk.

    Parameters
    ----------
    config:
        Aligner configuration shared by every wave.
    workers:
        ``1`` aligns in-process; ``> 1`` shards waves across that many
        spawn processes.
    inflight:
        Maximum waves in flight before :meth:`submit` blocks on the oldest
        (defaults to ``2 * workers``).
    executor:
        Optional started-or-startable
        :class:`repro.parallel.shm.SharedMemoryExecutor`; when given,
        waves are dispatched to it as shared-memory descriptors instead of
        pickled pairs.  The executor stays caller-owned: :meth:`close`
        does not shut it down, so one warm pool can serve many runs.  Its
        config must equal this stage's.
    max_lanes, scheduling, name:
        Forwarded to :class:`BatchAlignmentEngine`.
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`.  Each submitted
        wave gets a monotonically increasing ``wave_id`` and an
        ``align.wave`` span (in-process execution) or an
        ``align.dispatch`` span (the handoff to a pool or shared-memory
        executor; the executor's own tracer covers worker-side
        execution).
    """

    def __init__(
        self,
        config: Optional[GenASMConfig] = None,
        *,
        workers: int = 1,
        inflight: Optional[int] = None,
        executor=None,
        max_lanes: Optional[int] = None,
        scheduling: str = "sorted",
        name: str = "genasm-streaming",
        tracer=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if inflight is not None and inflight < 1:
            raise ValueError("inflight must be at least 1")
        if executor is not None:
            workers = max(workers, executor.workers)
        self.workers = workers
        self.executor = executor
        self.inflight = inflight if inflight is not None else max(2, 2 * workers)
        self._engine_kwargs = {
            "max_lanes": max_lanes,
            "scheduling": scheduling,
            "name": name,
        }
        # The in-process engine also validates config/options eagerly for
        # the sharded mode, so bad options fail at construction, not in a
        # worker traceback.
        self.engine = BatchAlignmentEngine(config, **self._engine_kwargs)
        if executor is not None and executor.config != self.engine.config:
            raise ValueError(
                "shared-memory executor was built with a different config "
                "than this align stage"
            )
        self._pool = None
        self._window = InflightWindow(self.inflight)
        self.tracer = get_tracer(tracer)
        #: Waves submitted so far; also the next wave's ``wave_id``.
        self.waves_submitted = 0

    @property
    def config(self) -> GenASMConfig:
        return self.engine.config

    @property
    def pending_waves(self) -> int:
        """Submitted waves not yet collected (the service's idle test)."""
        return len(self._window)

    # ------------------------------------------------------------------ #
    def submit(self, wave: Sequence) -> None:
        """Dispatch one wave (items must expose ``pattern`` and ``text``)."""
        pairs = [(item.pattern, item.text) for item in wave]
        wave_id = self.waves_submitted
        self.waves_submitted += 1
        if self.executor is not None:
            with self.tracer.span("align.dispatch", wave_id=wave_id, lanes=len(pairs)):
                future = self.executor.submit_wave(pairs, wave_id=wave_id)
            self._window.append(list(wave), future)
            return
        if self.workers == 1:
            with self.tracer.span("align.wave", wave_id=wave_id, lanes=len(pairs)):
                alignments = self.engine.align_pairs(pairs)
            self._window.append(list(wave), alignments)
            return
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=get_context("spawn")
            )
        with self.tracer.span("align.dispatch", wave_id=wave_id, lanes=len(pairs)):
            future = self._pool.submit(
                _align_wave, self.config, self._engine_kwargs, pairs
            )
        self._window.append(list(wave), future)

    def collect(self, *, block: bool = False) -> List[Tuple[List, List[Alignment]]]:
        """Pop completed waves from the front of the queue, submission order.

        Non-blocking by default: returns the finished prefix, waiting only
        when more than ``inflight`` waves are queued.  ``block=True`` waits
        for everything (the end-of-stream drain).
        """
        out: List[Tuple[List, List[Alignment]]] = []
        for wave, alignments in self._window.collect(block=block):
            if len(alignments) != len(wave):
                raise AssertionError(
                    "align stage returned a wave of the wrong width "
                    f"({len(alignments)} != {len(wave)})"
                )
            out.append((wave, alignments))
        return out

    def drain(self) -> List[Tuple[List, List[Alignment]]]:
        """Wait for and return every wave still in flight."""
        return self.collect(block=True)

    def close(self) -> None:
        """Shut down the stage's own process pool (if one was created).

        A caller-provided shared-memory executor is deliberately left
        running — its pool and hosted segments outlive individual runs.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
