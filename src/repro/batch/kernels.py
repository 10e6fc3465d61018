"""Batch-engine kernels for the two hottest steps, NumPy or compiled.

The vectorized engine spends most of its time in two places: the DC
recurrence's per-row match-chain scan along the text (value ``j`` needs
value ``j - 1``) and the traceback walk's per-step gather (four plane
words plus the character-equality word per lane, combined into the
priority key).  The NumPy scan resolves the column dependency with a
log-step doubling prefix composition (:func:`_dc_scan_numpy`), so one row
costs a few dozen array calls instead of several per column.  Both
kernels are also perfect ``@njit`` shapes: tight integer loops over
contiguous ``uint64`` arrays with no allocation.

This module is the seam that selects between the NumPy implementation and
a Numba-compiled twin:

* :data:`HAVE_NUMBA` records whether ``numba`` imported; the container
  and the default CI legs run without it, one CI leg installs it and
  re-runs the equivalence suite.
* :func:`resolve_kernel_backend` maps the ``GenASMConfig.kernel_backend``
  request (``"auto"`` / ``"numpy"`` / ``"numba"``) to the backend that
  will actually run.  Requesting ``"numba"`` without Numba degrades to
  ``"numpy"`` with a one-time :class:`RuntimeWarning` through the same
  dedupe set the engine's scalar fallback uses (:data:`FALLBACK_WARNED`).
* :func:`get_kernels` returns the :class:`KernelSet` for a resolved
  backend.  Both sets compute bit-identical results — the differential
  sweep in ``tests/test_batch_traceback.py`` pins the contract whenever
  Numba is importable.

Keeping the warning dedupe here (rather than in ``repro.batch.engine``)
avoids a circular import; the engine re-exports it as
``_FALLBACK_WARNED`` for the tests that re-arm warnings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.batch.soa import MAX_LANE_BITS

__all__ = [
    "HAVE_NUMBA",
    "KERNEL_BACKENDS",
    "FALLBACK_WARNED",
    "KernelSet",
    "resolve_kernel_backend",
    "get_kernels",
    "warn_fallback",
]

#: Values accepted by ``GenASMConfig.kernel_backend``.
KERNEL_BACKENDS = ("auto", "numpy", "numba")

#: Fallback reasons already warned about in this process, keyed by the
#: reason string.  Module-level on purpose: services construct engines per
#: worker or per request, so a per-instance flag would re-emit the same
#: ``RuntimeWarning`` endlessly for one configuration problem.  Tests
#: clear this set to re-arm the warning (the engine re-exports it as
#: ``_FALLBACK_WARNED``).
FALLBACK_WARNED: set = set()

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:  # the container default; the seam degrades to NumPy
    numba = None
    HAVE_NUMBA = False

_U1 = np.uint64(1)


def warn_fallback(reason: str, message: str) -> None:
    """Emit ``message`` as a RuntimeWarning once per process per ``reason``."""
    if reason in FALLBACK_WARNED:
        return
    FALLBACK_WARNED.add(reason)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def resolve_kernel_backend(requested: str = "auto", *, warn: bool = True) -> str:
    """Map a requested kernel backend to the one that will actually run.

    ``"auto"`` prefers Numba when importable (the compiled path is
    byte-identical, so opting in costs nothing but JIT warmup) and falls
    back to NumPy silently.  An explicit ``"numba"`` request without
    Numba degrades to ``"numpy"`` and warns once per process (suppressed
    with ``warn=False`` for pure introspection, e.g. result metadata).
    """
    if requested not in KERNEL_BACKENDS:
        raise ValueError(
            f"kernel_backend must be one of {KERNEL_BACKENDS}, got {requested!r}"
        )
    if requested == "numpy":
        return "numpy"
    if HAVE_NUMBA:
        return "numba"
    if requested == "numba" and warn:
        warn_fallback(
            "kernel_backend=numba",
            "kernel_backend='numba' requested but numba is not importable; "
            "falling back to the NumPy kernels (warned once per process)",
        )
    return "numpy"


@dataclass(frozen=True)
class KernelSet:
    """The two hot-loop kernels of one backend.

    ``dc_scan(R_cur, ones, masks, partial)`` fills columns ``1..n`` of the
    current DC row in place: ``R_cur`` is ``(W, L, n_max + 1)`` with column
    0 already holding row 0's boundary value, ``masks`` is
    ``(W, L, n_max)``, ``ones`` ``(W, L)``, and ``partial`` is the
    pre-ANDed subst/ins/del term for rows ``d >= 1`` (``None`` on row 0).
    Cross-word carry moves bit 63 of word ``w`` into bit 0 of ``w + 1``.

    ``tb_gather(planes_flat, char_flat, flat, word_at, shift, weights)``
    is one traceback step's gather: for each lane it extracts bit
    ``shift`` of the four condition-plane words at ``flat`` and of the
    character-equality word at ``word_at``, returning the priority-packed
    ``key`` (uint64, condition bits weighted by ``weights``) and the
    character bit.
    """

    name: str
    dc_scan: Callable
    tb_gather: Callable


# --------------------------------------------------------------------------- #
# NumPy implementations.
# --------------------------------------------------------------------------- #
def _shl_words(value: np.ndarray, shift: int) -> np.ndarray:
    """Multi-word ``value << shift`` for ``0 < shift < 64 * W``.

    ``value`` has the word axis first; bits cross from word ``w`` into
    word ``w + 1`` and bits shifted past the top word are dropped.
    """
    W = value.shape[0]
    if W == 1:
        return value << np.uint64(shift)
    q, r = divmod(shift, MAX_LANE_BITS)
    out = np.zeros_like(value)
    if r == 0:
        out[q:] = value[: W - q]
    else:
        out[q:] = value[: W - q] << np.uint64(r)
        out[q + 1 :] |= value[: W - q - 1] >> np.uint64(MAX_LANE_BITS - r)
    return out


def _dc_scan_numpy(
    R_cur: np.ndarray,
    ones: np.ndarray,
    masks: np.ndarray,
    partial: Optional[np.ndarray],
) -> None:
    """One DC row's match-chain scan as a log-step prefix composition.

    Column ``j`` applies ``f_j(x) = ((x << 1) & M_j) | C_j`` to column
    ``j - 1``, with ``M_j = ones & partial_j`` and ``C_j = masks_j &
    partial_j`` (``partial`` is all ones on row 0).  Maps of the form
    ``x -> ((x << s) & M) | C`` are closed under composition::

        f_b(f_a(x)) = ((x << (s_a + s_b)) & ((M_a << s_b) & M_b))
                      | (((C_a << s_b) & M_b) | C_b)

    so a Hillis-Steele doubling scan resolves every column at once.
    Column 0 is the constant seed (``M = 0``, ``C = R_cur[:, :, 0]``);
    at offset ``o = 1, 2, 4, ...`` each column ``j >= o`` absorbs column
    ``j - o``: ``C_j <- ((C_{j-o} << o) & M_j) | C_j`` and ``M_j <-
    (M_{j-o} << o) & M_j``.  Once the span reaches column 0 or the
    accumulated shift reaches the lane width ``64 W`` every map is a
    constant, so the scan takes ``ceil(log2(min(n_max + 1, 64 W)))``
    levels, each a handful of NumPy calls over ``(W, L, n_max)``.  ``C``
    lives in ``R_cur`` itself; ``M`` is one scratch array.
    """
    n_max = masks.shape[2]
    lane_bits = MAX_LANE_BITS * R_cur.shape[0]
    if partial is None:
        R_cur[:, :, 1:] = masks
        M = np.repeat(ones[:, :, None], n_max, axis=2)
    else:
        np.bitwise_and(masks, partial, out=R_cur[:, :, 1:])
        M = ones[:, :, None] & partial
    # M[:, :, j - 1] belongs to column j (column 0 has no map).
    o = 1
    while o <= n_max and o < lane_bits:
        carried = _shl_words(R_cur[:, :, : n_max + 1 - o], o)
        carried &= M[:, :, o - 1 :]
        R_cur[:, :, o:] |= carried
        if 2 * o <= n_max and 2 * o < lane_bits:
            M[:, :, 2 * o - 1 :] &= _shl_words(M[:, :, o - 1 : n_max - o], o)
        o *= 2


def _tb_gather_numpy(
    planes_flat: np.ndarray,
    char_flat: np.ndarray,
    flat: np.ndarray,
    word_at: np.ndarray,
    shift: np.ndarray,
    weights: np.ndarray,
):
    words = planes_flat[:, flat]  # (4, L) condition words
    bits = (words >> shift) & _U1
    char_bit = (char_flat[word_at] >> shift) & _U1
    key = (bits * weights[:, None]).sum(axis=0)
    return key, char_bit


_NUMPY_KERNELS = KernelSet(
    name="numpy", dc_scan=_dc_scan_numpy, tb_gather=_tb_gather_numpy
)


# --------------------------------------------------------------------------- #
# Numba twins: the same results as the NumPy kernels, computed with the
# plain per-column recurrence as explicit per-lane/per-word integer loops
# (the shape @njit compiles best).
# --------------------------------------------------------------------------- #
_NUMBA_KERNELS: Optional[KernelSet] = None

if HAVE_NUMBA:  # pragma: no cover - exercised only in the Numba CI leg

    @numba.njit(cache=True)
    def _dc_scan_numba_impl(R_cur, ones, masks, partial, has_partial):
        W, L, cols = R_cur.shape
        one = np.uint64(1)
        s63 = np.uint64(63)
        for j in range(1, cols):
            for lane in range(L):
                carry = np.uint64(0)
                for w in range(W):
                    prev = R_cur[w, lane, j - 1]
                    shifted = (prev << one) | carry
                    carry = prev >> s63
                    value = (shifted & ones[w, lane]) | masks[w, lane, j - 1]
                    if has_partial:
                        value = value & partial[w, lane, j - 1]
                    R_cur[w, lane, j] = value

    @numba.njit(cache=True)
    def _tb_gather_numba_impl(
        planes_flat, char_flat, flat, word_at, shift, weights, key_out, char_out
    ):
        one = np.uint64(1)
        for lane in range(flat.size):
            s = shift[lane]
            key = np.uint64(0)
            for p in range(4):
                key += ((planes_flat[p, flat[lane]] >> s) & one) * weights[p]
            key_out[lane] = key
            char_out[lane] = (char_flat[word_at[lane]] >> s) & one

    _DUMMY_PARTIAL = np.zeros((1, 1, 1), dtype=np.uint64)

    def _dc_scan_numba(R_cur, ones, masks, partial):
        if partial is None:
            _dc_scan_numba_impl(R_cur, ones, masks, _DUMMY_PARTIAL, False)
        else:
            _dc_scan_numba_impl(R_cur, ones, masks, partial, True)

    def _tb_gather_numba(planes_flat, char_flat, flat, word_at, shift, weights):
        key = np.empty(flat.size, dtype=np.uint64)
        char_bit = np.empty(flat.size, dtype=np.uint64)
        _tb_gather_numba_impl(
            planes_flat, char_flat, flat, word_at, shift, weights, key, char_bit
        )
        return key, char_bit

    _NUMBA_KERNELS = KernelSet(
        name="numba", dc_scan=_dc_scan_numba, tb_gather=_tb_gather_numba
    )


def get_kernels(backend: str = "auto", *, warn: bool = True) -> KernelSet:
    """The :class:`KernelSet` for a (possibly unresolved) backend name."""
    resolved = resolve_kernel_backend(backend, warn=warn)
    if resolved == "numba":
        assert _NUMBA_KERNELS is not None
        return _NUMBA_KERNELS
    return _NUMPY_KERNELS
