"""Blahut-Arimoto iteration kernels: one shared step, scalar and batched.

Every Blahut-Arimoto (BA) solve in this package runs the same private
iteration, :func:`_ba_step`: the scalar
:func:`repro.infotheory.blahut_arimoto.blahut_arimoto`, the batched
:func:`blahut_arimoto_batch` behind the E9 deletion grid, the indel
``(P_d, P_i)`` grids and service query batches, and the penalized
:func:`penalized_blahut_arimoto_batch` inside the timed-DMC Dinkelbach
loop. The step takes one channel (``p`` of shape ``(nx,)``, ``W`` of
shape ``(nx, ny)``) or a ``(k, nx, ny)`` **stack** with one extra
leading axis.

The step rests on the row-entropy identity

    D(W(.|x) || q) = c_x - sum_y W(y|x) log2 q(y),
    c_x = sum_y W(y|x) log2 W(y|x),

so ``c`` (:func:`_row_entropy_term`, from
:func:`repro.numerics.masked_log2`) is computed once per solve, and an
iteration is two matrix-vector products, two floored logs and a base-2
softmax, with no ``(nx, ny)`` temporary. Inputs are validated once, at
entry. Inside the loop ``q = pW`` and the softmax iterate ``p`` are
non-negative by construction, so their logs go through the check-free
:func:`repro.numerics.floored_log2` at ``LOG_FLOOR``. The penalized
solve folds its per-input penalties into ``c``.

In the batched kernels the active channels form a sub-stack that is
re-sliced only when a channel terminates, and all of them share one
iteration counter. Early finishers freeze while stragglers iterate, so
a sweep's cost tracks its slowest channel in iteration count, not in
per-iteration width. The guard semantics mirror
:class:`repro.numerics.IterationGuard` exactly (aborted / converged /
diverged / stalled / max-iter classification in that order,
best-so-far fallback for non-converged channels), so a batched sweep
reports the same solver health the scalar loop would; the full
classification runs only on iterations where a cheap test says some
channel may be terminal. The parity suite holds the batched kernel to
1e-12 against the scalar solver per channel, with identical iteration
counts and statuses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

import numpy as np

from ..numerics import (
    SolverDiagnostics,
    SolverStatus,
    floored_log2,
    masked_log2,
    record_status,
    stage,
)

if TYPE_CHECKING:
    from .blahut_arimoto import BlahutArimotoResult

__all__ = [
    "BATCH_SOLVER",
    "BatchedBAResult",
    "PenalizedBABatchResult",
    "validate_transition_stack",
    "blahut_arimoto_batch",
    "penalized_blahut_arimoto_batch",
]

#: Solver name batched runs report under (status collector + diagnostics).
BATCH_SOLVER = "blahut_arimoto_batch"

#: Guard parameters of the batched kernel, equal to the scalar solver's
#: guard: stall after 200 iterations without a new best gap, diverge
#: once the gap exceeds 1e6 times the best.
_STALL_WINDOW = 200
_DIVERGENCE_FACTOR = 1e6

#: Severity order used to summarize a stack's statuses into one
#: diagnostics status (worst wins; CONVERGED only if unanimous).
_SEVERITY = (
    SolverStatus.CONVERGED,
    SolverStatus.MAX_ITER,
    SolverStatus.STALLED,
    SolverStatus.DIVERGED,
    SolverStatus.ABORTED,
)


def _row_entropy_term(w: np.ndarray) -> np.ndarray:
    """``c_x = sum_y W(y|x) log2 W(y|x)`` for every input row of *w*.

    Shape ``w.shape[:-1]``. Structural zeros contribute nothing
    (:func:`~repro.numerics.masked_log2` maps them to ``0.0``).
    """
    return np.einsum("...xy,...xy->...x", w, masked_log2(w))


def _ba_step(
    p: np.ndarray, w: np.ndarray, c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Blahut-Arimoto iteration at *p*, for a channel or a stack.

    Shapes ``p (nx,)``, ``w (nx, ny)``, ``c (nx,)`` for one channel,
    or with a leading stack axis ``k`` on all three. Returns
    ``(value, gap, p_next)``: with
    ``d_x = c_x - sum_y W(y|x) log2 q(y)`` and ``q = pW``,
    ``value = p . d`` is the lower bound ``I(p, W)``,
    ``gap = max_x d_x - value`` the duality gap, and
    ``p_next(x) ∝ p(x) 2^{d_x}`` the multiplicative update. ``value``
    and ``gap`` are scalars for one channel and ``(k,)`` for a stack.

    No domain checks: the callers validate ``W`` at entry, and ``q``
    and ``p`` are non-negative by construction. The floored logs keep
    ``d`` finite, so the softmax's largest term is ``2^0 = 1`` and its
    normalizer never vanishes.
    """
    if p.ndim == 1:
        q = p @ w
        d = c - w @ floored_log2(q)
        value = p @ d
    else:
        q = np.matmul(p[:, None, :], w)[:, 0, :]
        d = c - np.matmul(w, floored_log2(q)[:, :, None])[:, :, 0]
        value = np.einsum("kx,kx->k", p, d)
    gap = d.max(axis=-1) - value
    logits = floored_log2(p) + d
    logits -= logits.max(axis=-1, keepdims=True)
    p_next = np.exp2(logits, out=logits)
    p_next /= p_next.sum(axis=-1, keepdims=True)
    return value, gap, p_next


def validate_transition_stack(transitions: np.ndarray) -> np.ndarray:
    """Validate and return a ``(k, nx, ny)`` stack of channel matrices.

    Applies the same admission checks as the scalar solver — finite
    entries (checked explicitly, before they can trip the row-sum test
    with a confusing message), non-negative probabilities, rows summing
    to 1 — to every channel in the stack at once. A single ``(nx, ny)``
    matrix is promoted to a 1-stack.
    """
    w = np.asarray(transitions, dtype=float)
    if w.ndim == 2:
        w = w[None, :, :]
    if w.ndim != 3:
        raise ValueError("transitions must be a (k, nx, ny) channel stack")
    if w.shape[0] == 0:
        raise ValueError("channel stack is empty")
    if not np.all(np.isfinite(w)):
        raise ValueError("transition stack contains non-finite entries")
    if np.any(w < 0):
        raise ValueError("transition probabilities must be non-negative")
    if not np.allclose(w.sum(axis=2), 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must each sum to 1")
    return w


def _initial_stack(
    initial_input: Optional[np.ndarray], k: int, nx: int
) -> np.ndarray:
    """Per-channel starting distributions with the scalar smoothing rule."""
    if initial_input is None:
        return np.full((k, nx), 1.0 / nx)
    p = np.asarray(initial_input, dtype=float)
    if p.shape == (nx,):
        p = np.broadcast_to(p, (k, nx)).copy()
    if p.shape != (k, nx):
        raise ValueError("initial_input has wrong shape")
    if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("initial_input rows must be distributions")
    if np.any(p == 0):
        # Zero entries can never recover under the multiplicative
        # update; smooth (only) the rows that contain exact zeros so a
        # strictly positive start point passes through untouched.
        rows = np.any(p == 0, axis=1)
        smoothed = p[rows] + 1e-12
        p[rows] = smoothed / smoothed.sum(axis=1, keepdims=True)
    return p


@dataclass(frozen=True)
class BatchedBAResult:
    """Outcome of one batched Blahut-Arimoto run over a channel stack.

    All per-channel attributes are arrays indexed by the stack axis.

    Attributes
    ----------
    capacity:
        Capacity estimates, shape ``(k,)`` (best-so-far for channels
        with a non-``converged`` status, as in the scalar solver).
    input_distribution:
        Capacity-achieving inputs, shape ``(k, nx)``.
    iterations:
        Iterations each channel ran before freezing, shape ``(k,)``.
    converged:
        ``status == CONVERGED`` per channel, shape ``(k,)``.
    gap:
        Final duality gap per channel (best observed gap when not
        converged), shape ``(k,)``.
    statuses:
        Terminal :class:`repro.numerics.SolverStatus` per channel.
    diagnostics:
        Stack-level :class:`repro.numerics.SolverDiagnostics`: worst
        status, iteration count of the slowest channel, the max-gap
        trajectory tail, and per-status counts in ``notes``.
    """

    capacity: np.ndarray
    input_distribution: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    gap: np.ndarray
    statuses: Tuple[SolverStatus, ...]
    diagnostics: SolverDiagnostics

    def __len__(self) -> int:
        return self.capacity.shape[0]

    def unbatch(self) -> List[BlahutArimotoResult]:
        """Split into per-channel scalar-shaped results.

        Each entry mirrors what the scalar solver would return for that
        channel (capacity, distribution, iterations, status, gap); the
        shared stack-level diagnostics are attached to every entry.
        """
        # Imported here: the scalar solver imports this module's step.
        from .blahut_arimoto import BlahutArimotoResult

        return [
            BlahutArimotoResult(
                capacity=float(self.capacity[i]),
                input_distribution=self.input_distribution[i],
                iterations=int(self.iterations[i]),
                converged=bool(self.converged[i]),
                gap=float(self.gap[i]),
                status=self.statuses[i],
                diagnostics=self.diagnostics,
            )
            for i in range(len(self))
        ]


def _stack_diagnostics(
    statuses: Tuple[SolverStatus, ...],
    iterations: np.ndarray,
    gap: np.ndarray,
    tail: Deque[float],
) -> SolverDiagnostics:
    """Summarize a stack's per-channel outcomes into one diagnostics."""
    worst = max(statuses, key=_SEVERITY.index)
    finite_gaps = gap[np.isfinite(gap)]
    counts = {s: statuses.count(s) for s in _SEVERITY if s in statuses}
    notes = tuple(f"{s.value}={n}" for s, n in counts.items())
    return SolverDiagnostics(
        solver=BATCH_SOLVER,
        status=worst,
        iterations=int(iterations.max()) if iterations.size else 0,
        residual_tail=tuple(tail),
        best_residual=float(finite_gaps.max()) if finite_gaps.size else float("inf"),
        best_iteration=int(iterations.max()) if iterations.size else 0,
        notes=notes,
    )


def blahut_arimoto_batch(
    transitions: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial_input: Optional[np.ndarray] = None,
) -> BatchedBAResult:
    """Blahut-Arimoto over a ``(k, nx, ny)`` stack of channels at once.

    Semantics match running the scalar
    :func:`~repro.infotheory.blahut_arimoto.blahut_arimoto` (with its
    default guard: ``stall_window=200``, divergence at ``1e6 ×`` best)
    independently per channel — capacity, input distribution, and gap
    agree to 1e-12 — but the iteration is one vectorized loop whose
    per-sweep cost covers only the channels still active: early
    finishers freeze while stragglers iterate.

    Parameters
    ----------
    transitions:
        Channel stack ``(k, nx, ny)``; a single matrix is promoted to
        a 1-stack. All channels must share the alphabet shape — pad
        heterogeneous sweeps (see the bounds sweeps) before stacking.
    tol, max_iter, initial_input:
        As in the scalar solver; ``initial_input`` may be one ``(nx,)``
        row shared by the stack or a full ``(k, nx)`` array.
    """
    w = validate_transition_stack(transitions)
    k, nx, _ny = w.shape
    p = _initial_stack(initial_input, k, nx)

    # Per-channel outcomes, filled in as each channel terminates.
    iterations = np.zeros(k, dtype=np.int64)
    status_codes: List[Optional[SolverStatus]] = [None] * k
    out_capacity = np.zeros(k)
    out_p = np.zeros((k, nx))
    out_gap = np.full(k, np.inf)
    have_best = np.zeros(k, dtype=bool)
    best_capacity = np.zeros(k)
    best_p = np.zeros((k, nx))
    best_gap = np.full(k, np.inf)
    tail: Deque[float] = deque(maxlen=8)

    # The active sub-stack: row i of every ``a_*`` array belongs to
    # channel ``idx[i]``. It is re-sliced only when channels terminate,
    # and all active channels share the iteration counter ``it``.
    idx = np.arange(k)
    wa, ca, pa = w, _row_entropy_term(w), p
    a_best_gap = np.full(k, np.inf)
    a_best_iteration = np.zeros(k, dtype=np.int64)
    a_best_capacity = np.zeros(k)
    a_best_p = np.zeros((k, nx))
    a_have_best = np.zeros(k, dtype=bool)
    it = 0

    with stage("solver"):
        while idx.size:
            capacity, gap, p_next = _ba_step(pa, wa, ca)
            it += 1
            highest = float(gap.max())
            lowest = float(gap.min())
            tail.append(highest)
            # Every gap finite and above tol: the common case. NaN fails
            # ``tol < lowest``, so it never counts as open.
            open_gaps = tol < lowest and highest < np.inf

            # Best-so-far bookkeeping, as in IterationGuard.update. When
            # every channel improves (most iterations), the fresh
            # arrays the step returned become the best-so-far ones.
            improved = gap < a_best_gap
            if not open_gaps:
                improved &= np.isfinite(gap)
            if improved.all():
                a_best_gap, a_best_capacity, a_best_p = gap, capacity, pa
                a_best_iteration.fill(it)
                a_have_best.fill(True)
            elif improved.any():
                np.copyto(a_best_gap, gap, where=improved)
                np.copyto(a_best_iteration, it, where=improved)
                np.copyto(a_best_capacity, capacity, where=improved)
                np.copyto(a_best_p, pa, where=improved[:, None])
                a_have_best |= improved

            # Cheap test: each terminal condition below implies that one
            # of these fails, so the full classification is skipped
            # while all of them hold.
            if (
                it < max_iter
                and open_gaps
                and it - int(a_best_iteration.min()) < _STALL_WINDOW
                and highest
                <= _DIVERGENCE_FACTOR * max(float(a_best_gap.min()), 1e-30)
            ):
                pa = p_next
                continue

            # Classification order mirrors IterationGuard.update:
            # non-finite -> aborted; gap <= tol -> converged; divergence
            # vs. best; stall window; max_iter.
            finite = np.isfinite(gap)
            conv = finite & (gap <= tol)
            div = (
                finite
                & ~conv
                & np.isfinite(a_best_gap)
                & (gap > _DIVERGENCE_FACTOR * np.maximum(a_best_gap, 1e-30))
            )
            stall = (
                finite
                & ~conv
                & ~div
                & (it - a_best_iteration >= _STALL_WINDOW)
            )
            capped = finite & ~conv & ~div & ~stall & (it >= max_iter)
            aborted = ~finite

            for status, mask in (
                (SolverStatus.ABORTED, aborted),
                (SolverStatus.CONVERGED, conv),
                (SolverStatus.DIVERGED, div),
                (SolverStatus.STALLED, stall),
                (SolverStatus.MAX_ITER, capped),
            ):
                if mask.any():
                    for channel in idx[mask]:
                        status_codes[channel] = status
            done = aborted | conv | div | stall | capped
            if done.any():
                # Terminal channels keep their *current* iterate here;
                # non-converged ones are replaced by best-so-far below.
                t = idx[done]
                iterations[t] = it
                out_capacity[t] = capacity[done]
                out_p[t] = pa[done]
                out_gap[t] = gap[done]
                have_best[t] = a_have_best[done]
                best_capacity[t] = a_best_capacity[done]
                best_p[t] = a_best_p[done]
                best_gap[t] = a_best_gap[done]
                keep = ~done
                idx = idx[keep]
                wa, ca, p_next = wa[keep], ca[keep], p_next[keep]
                a_best_gap = a_best_gap[keep]
                a_best_iteration = a_best_iteration[keep]
                a_best_capacity = a_best_capacity[keep]
                a_best_p = a_best_p[keep]
                a_have_best = a_have_best[keep]
            pa = p_next

    statuses = tuple(
        s if s is not None else SolverStatus.MAX_ITER for s in status_codes
    )
    converged = np.array(
        [s is SolverStatus.CONVERGED for s in statuses], dtype=bool
    )
    # Honest fallback, as in the scalar solver: a non-converged channel
    # reports its best finite iterate, not its last one.
    fallback = ~converged & have_best
    out_capacity[fallback] = best_capacity[fallback]
    out_p[fallback] = best_p[fallback]
    out_gap[fallback] = best_gap[fallback]
    bad = ~np.isfinite(out_capacity)
    out_capacity[bad] = 0.0
    out_gap[bad] = np.inf

    for status in statuses:
        record_status(BATCH_SOLVER, status)
    return BatchedBAResult(
        capacity=np.maximum(0.0, out_capacity),
        input_distribution=out_p,
        iterations=iterations,
        converged=converged,
        gap=out_gap,
        statuses=statuses,
        diagnostics=_stack_diagnostics(statuses, iterations, out_gap, tail),
    )


@dataclass(frozen=True)
class PenalizedBABatchResult:
    """Outcome of the batched penalized (cost-constrained) BA inner solve.

    Attributes
    ----------
    input_distribution:
        Maximizing inputs per channel, shape ``(k, nx)``.
    converged:
        Whether each channel's duality gap met ``tol`` before the
        iteration cap, shape ``(k,)``. An unconverged inner solve is
        precisely what would otherwise silently contaminate an outer
        Dinkelbach residual — callers must surface it.
    iterations:
        Iterations each channel ran, shape ``(k,)``.
    """

    input_distribution: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


def penalized_blahut_arimoto_batch(
    transitions: np.ndarray,
    penalties: np.ndarray,
    *,
    tol: float = 1e-11,
    max_iter: int = 5000,
) -> PenalizedBABatchResult:
    """Maximize ``I(p, W_k) - p · penalties_k`` per channel in a stack.

    The Lagrangian (cost-constrained) Blahut-Arimoto inner step of
    Dinkelbach's method, batched. Converged channels freeze while the
    rest iterate, exactly like :func:`blahut_arimoto_batch`. The
    penalties are folded into the row-entropy term once per call, so
    each iteration is the shared :func:`_ba_step` with ``c - penalties``.

    Parameters
    ----------
    transitions:
        Stack ``(k, nx, ny)``; a single matrix is promoted to a 1-stack.
        Assumed pre-validated (the outer solver owns admission checks).
    penalties:
        Per-input penalties, shape ``(k, nx)`` (or ``(nx,)`` for a
        1-stack) — ``lambda * tau`` in the timed-DMC solve.
    """
    w = np.asarray(transitions, dtype=float)
    if w.ndim == 2:
        w = w[None, :, :]
    k, nx, _ny = w.shape
    pen = np.asarray(penalties, dtype=float)
    if pen.shape == (nx,):
        pen = pen[None, :]
    if pen.shape != (k, nx):
        raise ValueError("penalties must have shape (k, nx)")

    p = np.full((k, nx), 1.0 / nx)
    converged = np.zeros(k, dtype=bool)
    iterations = np.zeros(k, dtype=np.int64)
    # Active sub-stack, re-sliced only when channels terminate.
    idx = np.arange(k)
    wa, ca, pa = w, _row_entropy_term(w) - pen, p
    it = 0
    while idx.size:
        _value, gap, p_next = _ba_step(pa, wa, ca)
        it += 1
        done = gap < tol
        finished = done if it < max_iter else np.ones_like(done)
        if finished.any():
            t = idx[finished]
            converged[t] = done[finished]
            iterations[t] = it
            p[t] = pa[finished]
            keep = ~finished
            idx = idx[keep]
            wa, ca, p_next = wa[keep], ca[keep], p_next[keep]
        pa = p_next
    return PenalizedBABatchResult(
        input_distribution=p, converged=converged, iterations=iterations
    )
