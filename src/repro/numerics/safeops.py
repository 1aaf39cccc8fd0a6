"""Log-domain primitives with explicit underflow floors.

Every capacity solver in this package manipulates probabilities that
legitimately reach 0 (deleted symbols, degenerate transition rows) or
underflow (forward-backward likelihoods over long frames). The ad-hoc
idiom ``np.log(np.maximum(x, 1e-300))`` was scattered across the
solvers with inconsistent floors; these helpers centralize it so the
floor is one auditable constant, the guarded call sites are lintable
(rule NUM001), and log-domain accumulation (``logsumexp2``,
``normalized_exp2``) is shared instead of re-derived per solver.

All functions accept scalars or arrays and preserve shape.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = [
    "LOG_FLOOR",
    "safe_log",
    "safe_log2",
    "floored_log2",
    "masked_log2",
    "logsumexp2",
    "normalized_exp",
    "normalized_exp2",
]

#: Default probability floor before taking a logarithm. Chosen just
#: above the smallest positive normal double so ``log`` of the floored
#: value is a large-but-finite number (~ -996 in bits), never ``-inf``.
LOG_FLOOR = 1e-300

ArrayLike = Union[float, np.ndarray]


def _floored(x: ArrayLike, floor: float, name: str) -> np.ndarray:
    if floor <= 0:
        raise ValueError(f"{name} floor must be positive, got {floor}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"{name} argument must be non-negative")
    return np.maximum(arr, floor)


def safe_log(x: ArrayLike, *, floor: float = LOG_FLOOR) -> np.ndarray:
    """Natural log of a non-negative array, floored at *floor*.

    Replaces the ``np.log(np.maximum(x, eps))`` /
    ``np.log(np.clip(x, eps, None))`` idiom: zeros and underflowed
    values map to ``log(floor)`` (finite), never ``-inf`` or ``nan``.
    Negative inputs raise ``ValueError`` — a negative "probability" is
    a bug upstream, not something to floor away.
    """
    return np.log(_floored(x, floor, "safe_log"))


def safe_log2(x: ArrayLike, *, floor: float = LOG_FLOOR) -> np.ndarray:
    """Base-2 log of a non-negative array, floored at *floor*.

    The bits-domain twin of :func:`safe_log`; the workhorse of the
    Blahut-Arimoto and timed-DMC solvers.
    """
    return np.log2(_floored(x, floor, "safe_log2"))


def floored_log2(x: np.ndarray) -> np.ndarray:
    """Base-2 log of *x* floored at :data:`LOG_FLOOR`, with no domain check.

    The inner-loop twin of :func:`safe_log2` for solvers that validate
    their inputs once at entry and whose iterates are non-negative by
    construction (the Blahut-Arimoto step: ``q = pW`` and the softmax
    iterate ``p``). It skips the per-call negativity scan and floor
    check, so a negative entry is floored silently instead of raising;
    anything that cannot prove its argument non-negative uses
    :func:`safe_log2`.
    """
    out = np.maximum(x, LOG_FLOOR)
    return np.log2(out, out=out)


def masked_log2(x: ArrayLike, *, floor: float = LOG_FLOOR) -> np.ndarray:
    """Base-2 log on the positive entries of *x*, exact ``0.0`` elsewhere.

    The Blahut-Arimoto family needs ``log2 W`` only where ``W > 0`` —
    structural zeros never contribute to ``sum_y W log2(W/q)`` because
    the ``W`` factor kills the term — so the log of a zero entry is
    *meaningless*, not merely small. This helper makes that explicit:
    positive entries get :func:`safe_log2` (subnormals still pass
    through the *floor*), zeros map to exactly ``0.0``, and negative
    entries raise like every other ``safe_*`` primitive. It replaces
    the ``np.where(w > 0, safe_log2(w), 0.0)`` idiom previously
    duplicated across the scalar solvers, and is the form the batched
    kernels precompute once per ``(k, nx, ny)`` stack.
    """
    arr = np.asarray(x, dtype=float)
    return np.where(arr > 0, np.log2(_floored(arr, floor, "masked_log2")), 0.0)


def logsumexp2(
    a: ArrayLike, *, axis: Optional[int] = None
) -> Union[float, np.ndarray]:
    """``log2(sum(2**a))`` computed without overflow (max-shifted).

    Entries of ``-inf`` (exactly-zero mass) are handled: an all-``-inf``
    reduction returns ``-inf`` rather than ``nan``.
    """
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        raise ValueError("logsumexp2 of an empty array")
    hi = np.max(arr, axis=axis, keepdims=True)
    # An all--inf slice would produce -inf - -inf = nan; shift by 0 there.
    shift = np.where(np.isfinite(hi), hi, 0.0)
    total = np.sum(np.exp2(arr - shift), axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        # log2(0) for an all--inf slice is replaced by -inf just below.
        out = shift + np.log2(total)
    out = np.where(np.isfinite(hi), out, hi)
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def _normalized(shifted: np.ndarray, axis: int) -> np.ndarray:
    total = shifted.sum(axis=axis, keepdims=True)
    # All-zero mass (every logit -inf, or exp underflowed): fall back to
    # uniform instead of dividing by zero — the caller's guard sees the
    # stall/abort through its residuals, not through NaN poisoning.
    n = shifted.shape[axis]
    return np.where(total > 0, shifted / np.where(total > 0, total, 1.0), 1.0 / n)


def normalized_exp2(logits: ArrayLike, *, axis: int = -1) -> np.ndarray:
    """Softmax in base 2: ``2**logits`` normalized to sum to 1.

    Subtracts the per-slice max before exponentiating (the standard
    stabilization) and degrades an all-``-inf`` slice to the uniform
    distribution instead of ``nan``.
    """
    arr = np.asarray(logits, dtype=float)
    hi = np.max(arr, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    return _normalized(np.exp2(arr - shift), axis)


def normalized_exp(logits: ArrayLike, *, axis: int = -1) -> np.ndarray:
    """Natural-base softmax: ``exp(logits)`` normalized to sum to 1.

    Same stabilization and all-``-inf`` fallback as
    :func:`normalized_exp2`.
    """
    arr = np.asarray(logits, dtype=float)
    hi = np.max(arr, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    return _normalized(np.exp(arr - shift), axis)
