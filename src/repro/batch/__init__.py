"""Vectorized batched alignment (lockstep structure-of-arrays GenASM).

``repro.batch`` evaluates many window pairs in lockstep using NumPy
structure-of-arrays bitvectors — one **multi-word** lane per pair
(``ceil(window_size / 64)`` ``uint64`` words, so short-read configurations
with windows wider than one machine word vectorize too) — replacing the
per-pair Python-int hot loop for batch workloads.  Results are
byte-identical to the scalar path in :mod:`repro.core`.

* :class:`BatchAlignmentEngine` — batch aligner producing
  :class:`repro.core.alignment.Alignment` objects.
* :func:`run_dc_wave_state` / :class:`SoAWave` / :class:`LaneJob` — the
  lockstep GenASM-DC kernel and its lane layout.  The returned
  :class:`WaveDCState` keeps the rows in SoA layout;
  :meth:`WaveDCState.table` adapts one lane to the scalar ``DCTable``.
* :func:`build_wave_decisions` / :func:`lockstep_traceback` — the lockstep
  GenASM-TB kernel (see below).
* :func:`lockstep_stats` — lockstep (SIMT warp divergence) efficiency
  model shared with :mod:`repro.gpu.simulator`.

Decision-word traceback layout
------------------------------
Both phases of a window run wave-wide.  The DC wave stores its rows as SoA
arrays (``stored[d]`` is the full-width ``R`` row ``(W, lanes, n_max + 1)``
with ``W`` words per lane, or a quad tuple without entry compression; the
scalar path's band packing and reachability placeholders are imposed
lazily via :meth:`SoAWave.zero_view_mask`).  Before traceback, those rows
are expanded into **decision words**: four ``uint64`` planes of shape
``(rows, W, lanes, n_max + 1)`` — one per CIGAR operation — in which bit
``i % 64`` of word ``i // 64`` of ``plane[d, ·, lane, j]`` says that
operation is a legal traceback step at text column ``j``, error level
``d``, pattern bit ``i``.  A match-plane word, for example, is
``char_eq[j] & ((zero(R[d][j-1]) << 1) | 1)`` — the character-equality
word ANDed with the shifted zero-bit view of the neighbouring stored
entry, the ``<< 1`` carrying bit 63 of each word into bit 0 of the next
(the cross-word stitch at ``i % 64 == 0``) — exactly the predicate
:func:`repro.core.genasm_tb.traceback_conditions` evaluates bit by bit.

The traceback then walks **all live lanes in lockstep**: per emitted CIGAR
column, one gather fetches word ``i // 64`` of each lane's five decision
words, a 16-entry lookup table resolves the first-true operation under
``match_priority``, and a second table replays the scalar loop's
short-circuit read accounting (``dp_reads`` / ``bytes_read``).  Lanes
whose committed pattern budget is exhausted drop out of the active mask —
the same warp model :func:`lockstep_stats` quantifies and
:meth:`repro.gpu.simulator.GpuSimulator.warp_divergence` applies to GPU
warps.  Scheduling lanes into waves by expected lockstep work — window
count × words per lane (:meth:`BatchAlignmentEngine.schedule`) — keeps
that mask dense on mixed-length batches.
"""

from repro.batch.engine import (
    BatchAlignmentEngine,
    WaveDCState,
    run_dc_wave_state,
)
from repro.batch.soa import LaneJob, SoAWave, lane_words, lockstep_stats
from repro.batch.traceback import (
    LaneTraceback,
    WaveDecisions,
    build_wave_decisions,
    lockstep_traceback,
)

__all__ = [
    "BatchAlignmentEngine",
    "WaveDCState",
    "run_dc_wave_state",
    "LaneJob",
    "SoAWave",
    "lane_words",
    "lockstep_stats",
    "LaneTraceback",
    "WaveDecisions",
    "build_wave_decisions",
    "lockstep_traceback",
]
