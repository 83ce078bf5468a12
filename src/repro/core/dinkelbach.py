"""Dinkelbach's transform for the max-rate problem (Appendix A).

The scheduling-leakage bound requires solving the single-ratio fractional
program

``R'_max = max_{p(x)} (H(Y) - H(delta)) / T_avg``   (Equation A.11)

over the probability simplex. Dinkelbach's transform reduces it to a
sequence of concave maximizations ``F(q) = max_p {N(p) - q D(p)}``; each
inner problem is solved here with exponentiated-gradient (mirror-descent)
ascent, which keeps iterates on the simplex by construction. The paper
used PyTorch's Adam for the inner problem; exponentiated gradient solves
the same concave program (the objective is concave because ``H(Y)`` is
concave in ``p(x)`` and ``T_avg`` is linear) without a deep-learning
dependency.

After convergence the upper-bound guess ``q' = q_n + margin`` is verified
by checking ``F(q') <= 0`` (strict monotonic decrease of ``F`` makes any
such ``q'`` a certified upper bound of the optimum, per Appendix A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.covert import CovertChannelModel
from repro.errors import OptimizationError
from repro.info.entropy import _LOG2E, entropy_gradient_vec
from repro.obs.liveness import progress_beat

#: Floor applied inside exponentiated-gradient updates to keep every
#: coordinate alive (EG cannot resurrect an exactly-zero coordinate).
_PROBABILITY_FLOOR = 1e-12

#: Starting iterates per inner solve: the uniform distribution plus
#: Dirichlet draws.
_RESTARTS = 3


def _project_floor(p: np.ndarray) -> np.ndarray:
    p = np.maximum(p, _PROBABILITY_FLOOR)
    return p / p.sum()


def _simplex_starts(n: int, restarts: int, seed: int) -> np.ndarray:
    """The ``(restarts, n)`` starting iterates: uniform, then Dirichlet draws."""
    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / n)]
    for _ in range(max(restarts - 1, 0)):
        starts.append(_project_floor(rng.dirichlet(np.ones(n))))
    return np.stack(starts)


def _ascend(
    pbatch: np.ndarray,
    gradient_rows: Callable[[np.ndarray], np.ndarray],
    iterations: int,
) -> None:
    """Exponentiated-gradient ascent on every row of ``pbatch``, in place.

    ``pbatch`` is a ``(..., n)`` array whose rows are points on the
    simplex; ``gradient_rows`` maps it to a fresh array of the objective
    gradients at every row. All rows advance in lock-step: the EG update
    (center, step, exp, floor, renormalize) is a handful of elementwise
    array ops whose fixed numpy dispatch cost would otherwise be paid
    once per row per iteration.
    """
    grads = gradient_rows(pbatch)
    scale = np.max(np.abs(grads), axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    base_step = 1.0 / scale
    # Overflow in exp is impossible: the exponent is clamped to [-30, 30].
    for t in range(1, iterations + 1):
        grads = gradient_rows(pbatch)
        # Center the gradient: adding a constant to all coordinates
        # does not change the EG direction but improves conditioning.
        grads -= np.einsum("...j,...j->...", pbatch, grads)[..., None]
        grads *= base_step / math.sqrt(t)
        # Clamp in place: maximum then minimum is np.clip's result
        # without its per-call dispatch overhead.
        np.maximum(grads, -30.0, out=grads)
        np.minimum(grads, 30.0, out=grads)
        np.exp(grads, out=grads)
        pbatch *= grads
        np.maximum(pbatch, _PROBABILITY_FLOOR, out=pbatch)
        pbatch /= pbatch.sum(axis=-1, keepdims=True)


def _best_row(
    rows: np.ndarray, objective: Callable[[np.ndarray], float]
) -> tuple[np.ndarray, float]:
    """The row of ``rows`` with the highest objective (first on ties)."""
    best_p: np.ndarray | None = None
    best_value = -np.inf
    for p in rows:
        value = objective(p)
        if value > best_value:
            best_value = value
            best_p = p
    assert best_p is not None
    return best_p.copy(), best_value


def maximize_concave_on_simplex(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    iterations: int = 400,
    restarts: int = _RESTARTS,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Maximize a concave function over the probability simplex.

    Exponentiated-gradient ascent with a decaying step size and random
    restarts (the problem is concave, so restarts only guard against slow
    progress from poor scaling, not local optima).

    Returns the best ``(p, objective(p))`` found.
    """
    if n < 1:
        raise OptimizationError("simplex dimension must be >= 1")
    if n == 1:
        p = np.ones(1)
        return p, objective(p)

    pbatch = _simplex_starts(n, restarts, seed)
    _ascend(
        pbatch,
        lambda rows: np.array([gradient(p) for p in rows], dtype=np.float64),
        iterations,
    )
    return _best_row(pbatch, objective)


@dataclass
class DinkelbachResult:
    """Outcome of a Dinkelbach fractional-programming solve.

    Attributes
    ----------
    optimum:
        The converged ratio ``q_n ~= max N/D``.
    upper_bound:
        A value ``q' >= optimum`` that passed the ``F(q') <= 0`` check.
    argmax:
        The input distribution achieving ``optimum``.
    q_history:
        The sequence of ``q_i`` iterates (monotonically non-decreasing).
    converged:
        Whether ``F(q_n) < tolerance`` was reached within the budget.
    bound_verified:
        Whether the ``F(q') <= 0`` verification succeeded.
    """

    optimum: float
    upper_bound: float
    argmax: np.ndarray
    q_history: list[float] = field(default_factory=list)
    converged: bool = True
    bound_verified: bool = True


def solve_fractional(
    numerator: Callable[[np.ndarray], float],
    denominator: Callable[[np.ndarray], float],
    numerator_gradient: Callable[[np.ndarray], np.ndarray],
    denominator_gradient: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    tolerance: float = 1e-6,
    max_outer_iterations: int = 30,
    inner_iterations: int = 400,
    bound_margin: float = 0.02,
    seed: int = 0,
    certify: bool = True,
) -> DinkelbachResult:
    """Solve ``max_p N(p)/D(p)`` over the simplex via Dinkelbach's transform.

    ``N`` must be concave, ``D`` positive and linear (or convex), so that
    the helper ``F(q) = max_p {N(p) - q D(p)}`` is a concave maximization
    for each ``q`` and strictly monotonically decreasing in ``q``.

    With ``certify=True`` the upper-bound guess ``q' = q_n * (1 + margin)``
    is checked by re-maximizing ``F(q')`` (the paper's empirical check —
    heuristic, since the re-maximization lower-bounds ``F``). Problem-
    specific *sound* certificates, where available, are preferable; see
    :func:`certified_rate_upper_bound` for the covert-channel instance.
    ``bound_margin`` is relative to ``q_n``.
    """

    def solve_inner(q: float, iterations: int, seed_offset: int) -> tuple[np.ndarray, float]:
        return maximize_concave_on_simplex(
            lambda p: numerator(p) - q * denominator(p),
            lambda p: numerator_gradient(p) - q * denominator_gradient(p),
            n,
            iterations=iterations,
            seed=seed + seed_offset,
        )

    q = 0.0
    history: list[float] = []
    converged = False
    p_star = np.full(n, 1.0 / n)
    best_q = -np.inf
    best_p = p_star
    for outer in range(max_outer_iterations):
        p_star, f_value = solve_inner(q, inner_iterations, outer)
        d_value = denominator(p_star)
        if d_value <= 0:
            raise OptimizationError("denominator must be positive on the simplex")
        q_next = numerator(p_star) / d_value
        history.append(q_next)
        if q_next > best_q:
            best_q = q_next
            best_p = p_star
        if f_value < tolerance and q_next <= q + tolerance:
            converged = True
            break
        q = q_next
    # Report the best achieved ratio and its witness distribution (the
    # last inner solve can land slightly below an earlier iterate).
    q = best_q
    p_star = best_p

    # Upper-bound check (Appendix A): guess q' = q * (1 + margin) and
    # empirically verify F(q') <= 0, growing the margin until it passes.
    bound_verified = True
    upper = q
    if certify:
        margin = bound_margin
        bound_verified = False
        scale = abs(q) if q != 0.0 else 1.0
        for attempt in range(8):
            candidate = q + margin * scale
            _, f_candidate = solve_inner(
                candidate, inner_iterations * 2, 100 + attempt
            )
            if f_candidate <= 0.0:
                upper = candidate
                bound_verified = True
                break
            margin *= 2.0
        if not bound_verified:
            upper = q + margin * scale

    return DinkelbachResult(
        optimum=q,
        upper_bound=upper,
        argmax=p_star,
        q_history=history,
        converged=converged,
        bound_verified=bound_verified,
    )


def certified_rate_upper_bound(
    transition: np.ndarray,
    durations: np.ndarray,
    delay_entropy_bits: float,
    reference_output: np.ndarray,
) -> float:
    """A *sound* upper bound on ``max_p (H(Y) - H(delta)) / T_avg``.

    Classic dual (Blahut-Arimoto / Topsoe) bound: for any reference
    output distribution ``r``, concavity of entropy gives
    ``H(Ap) <= -sum_y (Ap)_y log2 r_y = sum_x p_x c_x(r)`` with
    ``c_x(r) = -sum_y A[y,x] log2 r_y`` and equality at ``r = Ap``.
    Hence for every ``p`` on the simplex::

        (H(Y) - H(delta)) / (d . p) <= max_x (c_x(r) - H(delta)) / d_x

    Evaluating the right side at ``r = A p_hat`` with ``p_hat`` the
    solver's (near-optimal) input distribution yields a certificate that
    is tight at the optimum — unlike heuristically re-running the inner
    maximizer, which only *lower*-bounds ``F(q')`` and therefore cannot
    soundly verify ``F(q') <= 0``.
    """
    r = np.asarray(reference_output, dtype=np.float64)
    r = np.clip(r, 1e-300, None)
    cost = -(transition.T @ np.log2(r))
    ratios = (cost - delay_entropy_bits) / np.asarray(durations, dtype=np.float64)
    return float(np.max(ratios))


@dataclass(frozen=True)
class RmaxResult:
    """Maximum-rate solution for one covert-channel model.

    Rates are in bits per time unit of the model.
    """

    rate: float
    rate_upper_bound: float
    input_distribution: np.ndarray
    bits_per_transmission: float
    average_transmission_time: float
    converged: bool
    bound_verified: bool


def solve_rmax(
    model: CovertChannelModel,
    *,
    tolerance: float = 1e-6,
    max_outer_iterations: int = 30,
    inner_iterations: int = 400,
    seed: int = 0,
) -> RmaxResult:
    """Compute ``R'_max`` for a covert-channel model (Appendix A).

    This is the upper bound on the scheduling-leakage rate used by the
    runtime accountant. The returned ``rate_upper_bound`` is the sound
    :func:`certified_rate_upper_bound` at the solver's witness. It is the
    one-level case of :func:`solve_rmax_levels`.
    """
    (result,) = solve_rmax_levels(
        [model],
        [seed],
        tolerance=tolerance,
        max_outer_iterations=max_outer_iterations,
        inner_iterations=inner_iterations,
    )
    return result


def _entropy_gradient_rows(
    pbatch: np.ndarray, transition: np.ndarray, transition_t: np.ndarray
) -> np.ndarray:
    """Gradient of ``H(A p)`` in bits at every row ``p`` of ``pbatch``.

    ``pbatch`` is ``(..., n)``; the two matmuls run once per trailing
    ``(restarts, n)`` matrix, which keeps every level's gradient bit-equal
    to the one it gets when solved alone.
    """
    p_y = np.matmul(pbatch, transition_t)
    if p_y.min() > 0.0:
        # entropy_gradient_vec's strictly-positive fast path, inline:
        # the same operations, without the call and mask overhead.
        grad = np.log2(p_y)
        grad += _LOG2E
        np.negative(grad, out=grad)
    else:
        grad = entropy_gradient_vec(p_y)
    return np.matmul(grad, transition)


def solve_rmax_levels(
    models: Sequence[CovertChannelModel],
    seeds: Sequence[int],
    *,
    tolerance: float = 1e-6,
    max_outer_iterations: int = 30,
    inner_iterations: int = 400,
) -> list[RmaxResult]:
    """Solve ``R'_max`` for several models in one lock-step Dinkelbach loop.

    The models must share one transition matrix and differ only in their
    durations, as the levels of an R_max table do (a longer cooldown
    shifts every duration and output alike). Each round advances every
    model that has not yet converged through ``inner_iterations``
    exponentiated-gradient steps on one ``(models, restarts, n)`` iterate
    array. A model leaves the batch once its own Dinkelbach stopping test
    passes. Model ``i`` uses ``seeds[i]`` exactly as a solo solve would,
    so each result is bit-identical to ``solve_rmax(models[i],
    seed=seeds[i])``. The process's liveness counter beats once a round.
    """
    transition = np.ascontiguousarray(models[0].transition_matrix, dtype=np.float64)
    if any(not np.array_equal(m.transition_matrix, transition) for m in models[1:]):
        raise OptimizationError("lock-step models must share one transition matrix")
    # The gradient runs tens of thousands of times per solve; a
    # C-contiguous transpose keeps both matmuls on the fast BLAS path.
    transition_t = np.ascontiguousarray(transition.T)
    n = transition.shape[1]
    durations = np.stack([m.durations.astype(np.float64) for m in models])
    h_delta = [m.delay_entropy_bits() for m in models]

    def numerator(level: int, p: np.ndarray) -> float:
        return models[level].output_entropy_bits(p) - h_delta[level]

    def denominator(level: int, p: np.ndarray) -> float:
        return float(durations[level] @ p)

    q = [0.0] * len(models)
    best_q = [-np.inf] * len(models)
    best_p = [np.full(n, 1.0 / n)] * len(models)
    converged = [False] * len(models)
    active = list(range(len(models)))
    for outer in range(max_outer_iterations):
        if not active:
            break
        progress_beat()
        # The inner problem F(q) = max_p {N(p) - q d.p}, for every level.
        pbatch = np.stack(
            [_simplex_starts(n, _RESTARTS, seeds[i] + outer) for i in active]
        )
        q_active = np.array([q[i] for i in active])
        shift = (q_active[:, None] * durations[active])[:, None, :]
        _ascend(
            pbatch,
            lambda rows: _entropy_gradient_rows(rows, transition, transition_t)
            - shift,
            inner_iterations,
        )
        still_active = []
        for level, rows in zip(active, pbatch):
            q_level = q[level]
            p_star, f_value = _best_row(
                rows,
                lambda p: numerator(level, p) - q_level * denominator(level, p),
            )
            d_value = denominator(level, p_star)
            if d_value <= 0:
                raise OptimizationError("denominator must be positive on the simplex")
            q_next = numerator(level, p_star) / d_value
            # Keep the best achieved ratio and its witness distribution
            # (a later inner solve can land slightly below an earlier one).
            if q_next > best_q[level]:
                best_q[level] = q_next
                best_p[level] = p_star
            if f_value < tolerance and q_next <= q_level + tolerance:
                converged[level] = True
            else:
                q[level] = q_next
                still_active.append(level)
        active = still_active

    results = []
    for level in range(len(models)):
        p_star = best_p[level]
        certified = certified_rate_upper_bound(
            transition, durations[level], h_delta[level], transition @ p_star
        )
        # The certificate can only exceed the achieved ratio; numerical
        # residue aside, their gap measures solver convergence.
        results.append(
            RmaxResult(
                rate=best_q[level],
                rate_upper_bound=max(certified, best_q[level]),
                input_distribution=p_star,
                bits_per_transmission=numerator(level, p_star),
                average_transmission_time=denominator(level, p_star),
                converged=converged[level],
                bound_verified=True,
            )
        )
    return results
