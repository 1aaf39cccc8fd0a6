"""Blahut-Arimoto algorithm for discrete memoryless channel capacity.

The algorithm alternates between the optimal "backward" conditional
distribution and the capacity-achieving input distribution, converging to
the channel capacity ``C = max_{p(x)} I(X; Y)``. It is the numerical
workhorse used to cross-check every closed-form capacity in this package
(erasure channels, M-ary symmetric converted channels, Z-channels, ...).

Each iteration is the shared step of :mod:`repro.infotheory.kernels`
(the same arithmetic the batched solvers run), validated once at entry
and driven by a :class:`repro.numerics.IterationGuard`: a
NaN/Inf, divergence, or stall in an extreme regime (``P_d -> 1``,
near-degenerate transition rows) terminates with an honest
:class:`repro.numerics.SolverStatus` and the best-so-far estimate
instead of spinning or poisoning downstream bounds.
:func:`blahut_arimoto_guarded` adds the degradation ladder (damped
updates, relaxed tolerance) for callers that must always get a finite
answer.

Reference: R. Blahut, "Computation of channel capacity and
rate-distortion functions", IEEE Trans. IT, 1972.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..numerics import (
    IterationGuard,
    SolverDiagnostics,
    SolverStatus,
    degrade_gracefully,
    record_status,
    stage,
)
from ..store import cached_solve
from .kernels import _ba_step, _row_entropy_term

__all__ = [
    "BlahutArimotoResult",
    "blahut_arimoto",
    "blahut_arimoto_guarded",
    "channel_capacity",
]


@dataclass(frozen=True)
class BlahutArimotoResult:
    """Outcome of a Blahut-Arimoto run.

    Attributes
    ----------
    capacity:
        Channel capacity estimate in bits per channel use. On a
        non-``converged`` status this is the best-so-far (finite)
        estimate, accurate to within ``gap`` bits.
    input_distribution:
        Capacity-achieving input distribution found by the algorithm.
    iterations:
        Number of iterations performed.
    converged:
        Whether the duality-gap stopping criterion was met
        (equivalent to ``status is SolverStatus.CONVERGED``).
    gap:
        Final upper-bound minus lower-bound gap on the capacity
        (the best observed gap when not converged).
    status:
        Terminal :class:`repro.numerics.SolverStatus` of the solve.
    diagnostics:
        Guard trace (:class:`repro.numerics.SolverDiagnostics`) —
        residual tail, best iteration, degradation retries.
    """

    capacity: float
    input_distribution: np.ndarray
    iterations: int
    converged: bool
    gap: float
    status: SolverStatus = SolverStatus.CONVERGED
    diagnostics: Optional[SolverDiagnostics] = None


@cached_solve("blahut_arimoto")
def blahut_arimoto(
    transition: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial_input: Optional[np.ndarray] = None,
    damping: float = 0.0,
) -> BlahutArimotoResult:
    """Compute DMC capacity via the Blahut-Arimoto iteration.

    Memoized through :mod:`repro.store` when a result store is active
    (``REPRO_STORE_DIR`` or :func:`repro.store.use_store`); with no
    store the decorator is a bit-exact pass-through.

    Parameters
    ----------
    transition:
        Row-stochastic matrix ``P(y|x)`` of shape ``(nx, ny)``. Must be
        finite; non-finite entries are rejected explicitly rather than
        left to trip the row-sum check.
    tol:
        Stopping threshold on the duality gap
        ``max_x D(W(.|x) || q) - I`` which sandwiches the true capacity.
    max_iter:
        Iteration cap.
    initial_input:
        Optional starting input distribution (defaults to uniform).
        Zero entries can never recover under the multiplicative update,
        so a start point containing exact zeros is smoothed slightly; a
        strictly positive start point is used exactly as given.
    damping:
        Convex-combination weight kept on the previous iterate
        (``0`` = plain BA update). Used by the degradation ladder to
        settle oscillating iterates; slows nominal convergence, so the
        default is off.

    Returns
    -------
    BlahutArimotoResult
        The capacity estimate is guaranteed to be within ``gap`` bits of
        the true capacity when ``converged`` is True; otherwise
        ``status`` says how the solve ended and the estimate is the
        best (finite) iterate seen.
    """
    w = np.asarray(transition, dtype=float)
    if w.ndim != 2:
        raise ValueError("transition must be a 2-D matrix P(y|x)")
    if not np.all(np.isfinite(w)):
        raise ValueError("transition matrix contains non-finite entries")
    if np.any(w < 0):
        raise ValueError("transition probabilities must be non-negative")
    if not np.allclose(w.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must each sum to 1")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    nx = w.shape[0]

    if initial_input is None:
        p = np.full(nx, 1.0 / nx)
    else:
        p = np.asarray(initial_input, dtype=float)
        if p.shape != (nx,):
            raise ValueError("initial_input has wrong shape")
        if np.any(p < 0) or not np.isclose(p.sum(), 1.0, atol=1e-9):
            raise ValueError("initial_input must be a distribution")
        if np.any(p == 0):
            # Zero entries can never recover; smooth slightly. A
            # strictly positive start point passes through untouched.
            p = (p + 1e-12) / (p + 1e-12).sum()

    c = _row_entropy_term(w)

    guard = IterationGuard(
        "blahut_arimoto", max_iter=max_iter, tol=tol, stall_window=200
    )
    capacity = 0.0
    gap = float("inf")
    status: Optional[SolverStatus] = None
    with stage("solver"):
        while status is None:
            # Lower bound I(p, W), duality gap max_x D(W(.|x) || pW) - I,
            # and the multiplicative update p_{t+1}(x) ∝ p_t(x) 2^D.
            value, step_gap, p_next = _ba_step(p, w, c)
            capacity = float(value)
            gap = float(step_gap)
            status = guard.update(gap, value=(capacity, p))
            if status is not None:
                break
            if damping > 0.0:
                p_next = (1.0 - damping) * p_next + damping * p
            p = p_next

    if status is not SolverStatus.CONVERGED and guard.best_value is not None:
        # Honest fallback: report the best finite iterate, not the last.
        capacity, p = guard.best_value
        gap = guard.best_residual
    if not np.isfinite(capacity):
        capacity, gap = 0.0, float("inf")

    return BlahutArimotoResult(
        capacity=max(0.0, capacity),
        input_distribution=p,
        iterations=guard.iterations,
        converged=status is SolverStatus.CONVERGED,
        gap=gap,
        status=status,
        diagnostics=guard.diagnostics(),
    )


#: Degradation ladder for :func:`blahut_arimoto_guarded`: progressively
#: heavier damping to settle oscillation/stall, then a relaxed
#: tolerance to accept a near-converged gap.
_DEGRADE_LADDER = (
    {"damping": 0.5},
    {"damping": 0.9, "tol_scale": 1e4},
)


def _replay_guarded_status(result: BlahutArimotoResult) -> None:
    """On a cache hit, report the stored terminal status so a warm run
    surfaces the same solver health the cold run observed."""
    record_status("blahut_arimoto", result.status)


@cached_solve("blahut_arimoto_guarded", on_hit=_replay_guarded_status)
def blahut_arimoto_guarded(
    transition: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial_input: Optional[np.ndarray] = None,
) -> BlahutArimotoResult:
    """Blahut-Arimoto under the full graceful-degradation policy.

    Runs the plain iteration first; on any non-``converged`` status
    retries with damped updates, then with heavy damping and a relaxed
    tolerance. Always returns a finite estimate: the first converged
    attempt, or the best-so-far attempt with an honest status. The
    terminal status is reported to the experiment runner's status
    collector (:func:`repro.numerics.collect_solver_statuses`).
    """

    def solve(damping: float = 0.0, tol_scale: float = 1.0) -> BlahutArimotoResult:
        return blahut_arimoto(
            transition,
            tol=tol * tol_scale,
            max_iter=max_iter,
            initial_input=initial_input,
            damping=damping,
        )

    return degrade_gracefully(solve, _DEGRADE_LADDER, solver="blahut_arimoto")


def channel_capacity(transition: np.ndarray, *, tol: float = 1e-10) -> float:
    """Convenience wrapper returning only the capacity in bits/use."""
    return blahut_arimoto(transition, tol=tol).capacity
