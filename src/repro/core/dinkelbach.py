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
from typing import Callable

import numpy as np

from repro.core.covert import CovertChannelModel
from repro.errors import OptimizationError
from repro.info.entropy import _LOG2E, entropy_gradient_vec

#: Floor applied inside exponentiated-gradient updates to keep every
#: coordinate alive (EG cannot resurrect an exactly-zero coordinate).
_PROBABILITY_FLOOR = 1e-12


def _project_floor(p: np.ndarray) -> np.ndarray:
    p = np.maximum(p, _PROBABILITY_FLOOR)
    return p / p.sum()


def maximize_concave_on_simplex(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    iterations: int = 400,
    restarts: int = 3,
    seed: int = 0,
    gradient_rows: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize a concave function over the probability simplex.

    Exponentiated-gradient ascent with a decaying step size and random
    restarts (the problem is concave, so restarts only guard against slow
    progress from poor scaling, not local optima).

    ``gradient_rows``, when provided, evaluates the gradient for a whole
    ``(restarts, n)`` matrix of iterates at once (one row per restart)
    and replaces the per-restart ``gradient`` calls in the inner loop —
    worthwhile because the loop runs tens of thousands of times on small
    vectors, where per-call dispatch dominates.

    Returns the best ``(p, objective(p))`` found.
    """
    if n < 1:
        raise OptimizationError("simplex dimension must be >= 1")
    if n == 1:
        p = np.ones(1)
        return p, objective(p)

    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / n)]
    for _ in range(max(restarts - 1, 0)):
        starts.append(_project_floor(rng.dirichlet(np.ones(n))))

    # All restarts advance in lock-step as rows of one (S, n) array: the
    # EG update (center, step, exp, floor, renormalize) is a handful of
    # elementwise array ops whose fixed numpy dispatch cost would
    # otherwise be paid once per restart per iteration. The gradient
    # callable still sees one probability vector at a time.
    pbatch = np.stack(starts)
    nstarts = pbatch.shape[0]
    if gradient_rows is not None:
        grads = np.asarray(gradient_rows(pbatch), dtype=np.float64)
    else:
        grads = np.empty_like(pbatch)
        for i in range(nstarts):
            grads[i] = gradient(pbatch[i])
    scale = np.max(np.abs(grads), axis=1)
    scale[scale == 0.0] = 1.0
    base_step = (1.0 / scale)[:, None]
    # Overflow in exp is impossible: the exponent is clamped to [-30, 30].
    for t in range(1, iterations + 1):
        if gradient_rows is not None:
            grads = np.asarray(gradient_rows(pbatch), dtype=np.float64)
        else:
            for i in range(nstarts):
                grads[i] = gradient(pbatch[i])
        # Center the gradient: adding a constant to all coordinates
        # does not change the EG direction but improves conditioning.
        grads -= np.einsum("ij,ij->i", pbatch, grads)[:, None]
        grads *= base_step / math.sqrt(t)
        # Clamp in place: maximum then minimum is np.clip's result
        # without its per-call dispatch overhead.
        np.maximum(grads, -30.0, out=grads)
        np.minimum(grads, 30.0, out=grads)
        np.exp(grads, out=grads)
        pbatch *= grads
        np.maximum(pbatch, _PROBABILITY_FLOOR, out=pbatch)
        pbatch /= pbatch.sum(axis=1, keepdims=True)
    best_p: np.ndarray | None = None
    best_value = -np.inf
    for i in range(nstarts):
        value = objective(pbatch[i])
        if value > best_value:
            best_value = value
            best_p = pbatch[i]
    assert best_p is not None
    return best_p.copy(), best_value


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
    numerator_gradient_rows: Callable[[np.ndarray], np.ndarray] | None = None,
    linear_denominator: np.ndarray | None = None,
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

    ``numerator_gradient_rows`` evaluates ``N``'s gradient for a whole
    ``(restarts, n)`` matrix of iterates; together with
    ``linear_denominator`` — the coefficients ``d`` of a linear
    ``D(p) = d . p``, whose gradient is ``d`` everywhere — it replaces the
    per-restart gradient calls, and ``q * d`` is formed once per inner
    solve instead of once per iteration.
    """

    def solve_inner(q: float, iterations: int, seed_offset: int) -> tuple[np.ndarray, float]:
        rows = None
        if (
            numerator_gradient_rows is not None
            and linear_denominator is not None
        ):
            # One batched gradient per iteration for all restart rows.
            shift = q * linear_denominator
            rows = lambda pbatch: (  # noqa: E731
                numerator_gradient_rows(pbatch) - shift
            )
        return maximize_concave_on_simplex(
            lambda p: numerator(p) - q * denominator(p),
            lambda p: numerator_gradient(p) - q * denominator_gradient(p),
            n,
            iterations=iterations,
            seed=seed + seed_offset,
            gradient_rows=rows,
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
    runtime accountant. The returned ``rate_upper_bound`` passed the
    ``F(q') <= 0`` certification.
    """
    transition = np.ascontiguousarray(model.transition_matrix, dtype=np.float64)
    # The gradient is evaluated tens of thousands of times per solve; a
    # C-contiguous transpose keeps both matvecs on the fast BLAS path.
    transition_t = np.ascontiguousarray(transition.T)
    durations = model.durations.astype(np.float64)
    h_delta = model.delay_entropy_bits()

    def numerator(p: np.ndarray) -> float:
        return model.output_entropy_bits(p) - h_delta

    def numerator_gradient(p: np.ndarray) -> np.ndarray:
        p_y = transition @ p
        return transition_t @ entropy_gradient_vec(p_y)

    def numerator_gradient_rows(pbatch: np.ndarray) -> np.ndarray:
        # Row-wise twin of numerator_gradient: (S, n) iterates in, one
        # (S, n) gradient matrix out, via two matmuls instead of 2 S
        # matvecs (entropy_gradient_vec is elementwise, so it batches).
        p_y = pbatch @ transition_t
        if p_y.min() > 0.0:
            # entropy_gradient_vec's strictly-positive fast path, inline:
            # the same operations, without the call and mask overhead.
            grad = np.log2(p_y)
            grad += _LOG2E
            np.negative(grad, out=grad)
        else:
            grad = entropy_gradient_vec(p_y)
        return grad @ transition

    def denominator(p: np.ndarray) -> float:
        return float(durations @ p)

    def denominator_gradient(p: np.ndarray) -> np.ndarray:
        return durations

    result = solve_fractional(
        numerator,
        denominator,
        numerator_gradient,
        denominator_gradient,
        model.num_inputs,
        tolerance=tolerance,
        max_outer_iterations=max_outer_iterations,
        inner_iterations=inner_iterations,
        seed=seed,
        certify=False,
        numerator_gradient_rows=numerator_gradient_rows,
        linear_denominator=durations,
    )
    p_star = result.argmax
    certified = certified_rate_upper_bound(
        transition, durations, h_delta, transition @ p_star
    )
    # The certificate can only exceed the achieved ratio; numerical
    # residue aside, their gap measures solver convergence.
    upper = max(certified, result.optimum)
    return RmaxResult(
        rate=result.optimum,
        rate_upper_bound=upper,
        input_distribution=p_star,
        bits_per_transmission=numerator(p_star),
        average_transmission_time=denominator(p_star),
        converged=result.converged,
        bound_verified=True,
    )
