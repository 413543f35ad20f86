"""Maximization of the revenue form over the ordered cone Delta^k.

Multi-start projected gradient ascent with Armijo backtracking.  The
feasible set {0 <= v_1 <= ... <= v_k} admits an exact Euclidean projection
(isotonic regression followed by clamping at zero, which commute on this
cone), so no general-purpose NLP solver is needed.  The form is not
concave for unequal discounts, hence the multi-start.

Each run is polished by Newton's method on the face of the cone it settles
on (projected Newton, Bertsekas 1982), with one value per pooled block.  A
polished point is accepted only if it is feasible, worth at least the
ascent iterate, and passes the same gradient-mapping test at `tol` (1e-9
by default) that certifies an ascent iterate, so `converged` means the
same either way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .core import DiscountSequence, PricingTree
from .distributions import Uniform, ValuationDistribution, myerson_price
from .errors import InvalidParameterError
from .reduction import (_bilinear_gradient, _bilinear_hessian, _bilinear_value,
                        build_system, reduced_T2_functional, v_to_tree)

__all__ = [
    "OptimizationResult",
    "DiscountOrderWarning",
    "project_to_delta",
    "discount_rates",
    "rate_order_satisfied",
    "maximize_L",
    "maximize_bilinear",
    "t2_uniform_qp",
]

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
FACE_STABLE_ITERS = 2  # iterations a face must hold before Newton is tried on it
NEWTON_MAX_STEPS = 10  # Newton steps per try on a face
ORDER_TOL = 1e-12  # slack of the patience comparisons between discount sequences


class DiscountOrderWarning(UserWarning):
    """The per-round discount rates do not certify the optimality guarantee."""


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of maximizing the revenue form over Delta^k."""

    v_star: np.ndarray
    value: float
    tree: PricingTree
    iterations: int
    starts: int
    converged: bool
    kkt_residual: float


def project_to_delta(x) -> np.ndarray:
    """Euclidean projection onto {0 <= v_1 <= ... <= v_k}.

    Isotonic regression (pool-adjacent-violators) enforces the ordering;
    clamping negatives to zero enforces non-negativity.  The two steps
    commute for this cone, so the composition is the exact projection.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidParameterError("expected a non-empty 1-d vector")
    iso = isotonic_regression(x, increasing=True).x
    return np.maximum(iso, 0.0)


def discount_rates(discount: DiscountSequence) -> tuple[float, ...]:
    """Per-round rates nu_t = gamma_{t+1} / gamma_t (0 where gamma_t = 0)."""
    w = discount.weights
    return tuple(w[t + 1] / w[t] if w[t] > 0 else 0.0 for t in range(len(w) - 1))


def _over_common_rounds(a: DiscountSequence, b: DiscountSequence):
    """Both sequences as finite ones over rounds 1..H+1.

    H is the longest finite horizon of the pair, or 1 when both are
    infinite.  Round H+1 carries the mass an infinite sequence keeps beyond
    every finite one (a finite one is zero there), so finite and infinite
    sequences compare by one rule.  Finite sequences of unequal length
    describe different games and are rejected.
    """
    if a.is_finite and b.is_finite and len(a) != len(b):
        raise InvalidParameterError("discounts must have equal length")
    H = max((d.horizon for d in (a, b) if d.is_finite), default=1)
    return tuple(DiscountSequence([d.weight(t) for t in range(1, H + 2)])
                 for d in (a, b))


def rate_order_satisfied(buyer_discount: DiscountSequence,
                         seller_discount: DiscountSequence) -> bool:
    """Whether nu(buyer) <= nu(seller) holds at every round, up to `ORDER_TOL`.

    This is the hypothesis under which searching Delta^k is guaranteed to
    find a globally optimal pricing.  Infinite geometric sequences compare
    by their rates; a finite sequence drops to rate 0 after its last round.
    """
    buyer, seller = _over_common_rounds(buyer_discount, seller_discount)
    return all(b <= s + ORDER_TOL
               for b, s in zip(discount_rates(buyer), discount_rates(seller)))


def _pointwise_leq(a: DiscountSequence, b: DiscountSequence) -> bool:
    """Whether a_t <= b_t at every round (an infinite a outweighs a finite b)."""
    a, b = _over_common_rounds(a, b)
    return all(x <= y + ORDER_TOL for x, y in zip(a, b))


def _gradient_mapping(x: np.ndarray, g: np.ndarray, step0: float):
    """project(x + step0 g) and its distance from x over step0: 0 exactly at a KKT point."""
    reference = project_to_delta(x + step0 * g)
    return reference, float(np.linalg.norm(reference - x) / step0)


def _face(x: np.ndarray) -> np.ndarray:
    """The face of Delta^k that x lies on: [x_1 == 0, x_2 == x_1, ..., x_k == x_{k-1}].

    Exact comparisons suffice: the projection leaves pooled values equal
    and clamped ones at 0.
    """
    return np.concatenate(([x[0] == 0.0], x[1:] == x[:-1]))


def _face_newton(value_fn, grad_fn, hess_fn, x: np.ndarray, g: np.ndarray,
                 f: float, step0: float, tol: float, budget: int):
    """Newton's method on the block values of x's face, from x (gradient g).

    Each pooled block moves as one value, v = B u, and the block at 0 stays
    there.  Returns the steps taken and (v, value, kkt) for the first Newton
    point that is feasible, worth at least f, and certified by the gradient
    mapping at `tol`, or None when no point within `budget` steps is.
    """
    labels = np.cumsum(~_face(x))  # label 0 marks the block at 0
    blocks = (labels[:, None] == np.arange(1, labels[-1] + 1)).astype(float)
    v = x
    for step in range(1, budget + 1):
        curvature = -(blocks.T @ hess_fn(v) @ blocks)
        try:  # step only where the face's reduced Hessian is negative definite
            np.linalg.cholesky(curvature)
        except np.linalg.LinAlgError:
            return step, None
        v = v + blocks @ np.linalg.solve(curvature, blocks.T @ g)
        if not (v[0] >= 0.0 and np.all(v[1:] >= v[:-1])):
            return step, None
        g = grad_fn(v)
        _, kkt = _gradient_mapping(v, g, step0)
        value = value_fn(v)
        if kkt <= tol and value >= f:
            return step, (v, value, kkt)
    return budget, None


def _projected_ascent(value_fn, grad_fn, hess_fn, x0: np.ndarray, step0: float,
                      max_iter: int, tol: float):
    """One run of projected gradient ascent with Armijo backtracking.

    Accepted line-search steps never decrease the objective.  Near the
    optimum the objective differences underflow double precision before
    the gradient mapping does, so once the line search stalls the run
    switches to plain fixed-step projected iterations, which contract to
    the optimum without comparing objective values.  Once the iterate's
    face has held for `FACE_STABLE_ITERS` iterations, Newton's method on
    that face is tried once (`_face_newton`); each Newton step counts as
    an iteration.  The run stops when the gradient-mapping norm (at the
    reference step) is under `tol` or stops decreasing.
    """
    x = project_to_delta(x0)
    f = value_fn(x)
    step = step0
    kkt = np.inf
    best_kkt = np.inf
    stalled = 0
    face, face_age = _face(x), 0
    it = 0
    while it < max_iter:
        it += 1
        g = grad_fn(x)
        reference, kkt = _gradient_mapping(x, g, step0)
        if kkt <= tol:
            return x, value_fn(x), it, True, kkt
        if kkt < best_kkt * (1.0 - 1e-4):
            best_kkt = kkt
            stalled = 0
        else:
            stalled += 1
            if stalled > 250:  # gradient mapping hit its noise floor
                return x, value_fn(x), it, False, kkt
        current = _face(x)
        if np.array_equal(current, face):
            face_age += 1
        else:
            face, face_age = current, 0
        if face_age == FACE_STABLE_ITERS:
            steps, polished = _face_newton(value_fn, grad_fn, hess_fn, x, g, f, step0,
                                           tol, min(NEWTON_MAX_STEPS, max_iter - it))
            it += steps
            if polished is not None:
                v, value, v_kkt = polished
                return v, value, it, True, v_kkt
        t = min(step * 2.0, step0 * 1e6)
        accepted = False
        while t >= step0 * 1e-14:
            x_new = project_to_delta(x + t * g)
            f_new = value_fn(x_new)
            if np.isfinite(f_new) and f_new >= f + ARMIJO_C * float(g @ (x_new - x)) \
                    and f_new >= f:
                accepted = float(np.linalg.norm(x_new - x)) > 0
                break
            t *= ARMIJO_SHRINK
        if accepted:
            x, f, step = x_new, f_new, t
        else:
            # objective comparisons are below float resolution; take the
            # reference step anyway and keep watching the gradient mapping
            x = reference
            f = value_fn(x)
            step = step0
    return x, value_fn(x), max_iter, False, kkt


def _start_count(starts: int | None, k: int) -> int:
    """The number of ascent starts: `starts`, or max(16, 4k) when it is None."""
    return max(16, 4 * k) if starts is None else starts


def maximize_bilinear(matrix: np.ndarray, dist: ValuationDistribution, *,
                      starts: int | None = None, max_iter: int = 100_000,
                      tol: float = 1e-9,
                      seed: int = 0) -> tuple[np.ndarray, float, int, bool, float]:
    """Multi-start ascent of (1 - F(v))' M v over Delta^k for a given kernel M.

    Start points: the constant vector at the one-shot optimal price, the
    distribution's quantiles, and seeded random sorted draws.  Among runs
    tying for the best value (within 1e-10) a certified run is preferred,
    then the lexicographically smallest point, so results are stable and
    `converged` holds whenever a tied run certified.
    """
    k = matrix.shape[0]
    starts = _start_count(starts, k)
    if starts < 1:
        raise InvalidParameterError("needs at least one start")
    if max_iter < 1:
        raise InvalidParameterError("needs at least one iteration")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError("tol must be a finite positive number")
    p_star, _ = myerson_price(dist)
    lo, hi = dist.support
    rng = np.random.default_rng(seed)

    step0 = 1.0 / max(np.linalg.norm(matrix, 1), 1e-12)
    value_fn = lambda v: _bilinear_value(matrix, dist, v)
    grad_fn = lambda v: _bilinear_gradient(matrix, dist, v)
    hess_fn = lambda v: _bilinear_hessian(matrix, dist, v)

    runs = []
    total_iters = 0
    for i in range(starts):
        if i == 0:
            x0 = np.full(k, p_star)
        elif i == 1:
            x0 = np.sort(dist.quantile(np.linspace(0.0, 1.0, k + 2)[1:-1]))
        else:
            x0 = np.sort(rng.uniform(lo, hi, size=k))
        x, f, iters, ok, kkt = _projected_ascent(value_fn, grad_fn, hess_fn, x0,
                                                 step0, max_iter, tol)
        total_iters += iters
        runs.append((f, x, ok, kkt))
    best_f = max(r[0] for r in runs)
    tied = [r for r in runs if r[0] >= best_f - 1e-10]
    tied.sort(key=lambda r: (not r[2], tuple(r[1])))
    f, x, ok, kkt = tied[0]
    return x, f, total_iters, ok, kkt


def maximize_L(dist: ValuationDistribution, buyer_discount: DiscountSequence,
               seller_discount: DiscountSequence, horizon: int | None = None, *,
               starts: int | None = None, max_iter: int = 100_000,
               tol: float = 1e-9, seed: int = 0) -> OptimizationResult:
    """Revenue-maximal pricing tree for one game, via the cone reduction.

    Builds the reduction system, ascends L from multiple starts, and maps
    the winning point back to its tree.  If the discount rates violate
    nu(buyer) <= nu(seller) a warning is issued: the result is still the
    best completely active pricing, but the global optimality guarantee
    does not apply.
    """
    system = build_system(buyer_discount, seller_discount, horizon)
    if not rate_order_satisfied(system.buyer_discount, system.seller_discount):
        warnings.warn(
            "discount rates violate nu(buyer) <= nu(seller); the optimum over "
            "completely active pricings may not be globally optimal",
            DiscountOrderWarning, stacklevel=2)
    v, value, iters, ok, kkt = maximize_bilinear(
        system.Xi, dist, starts=starts, max_iter=max_iter, tol=tol, seed=seed)
    tree = v_to_tree(system, v)
    return OptimizationResult(v_star=v, value=value, tree=tree, iterations=iters,
                              starts=_start_count(starts, system.k),
                              converged=ok, kkt_residual=kkt)


def t2_uniform_qp(gs_rate: float, gb_rate: float) -> tuple[np.ndarray, float]:
    """Exact solution of the reduced two-round problem for U[0, 1].

    With a uniform valuation the reduced form is a strictly concave
    quadratic, so enumerating the boundary configurations of
    {0 <= v1 <= v2} (interior, v1 = 0, v1 = v2) solves it exactly.  Used as
    a cross-check of the gradient path, not as the default solver.
    """
    _, M = reduced_T2_functional(gs_rate, gb_rate, Uniform(0.0, 1.0))
    # L(v) = 1' M v - v' M v  for F(v) = v on [0, 1]
    value = lambda v: float(M.sum(axis=0) @ v - v @ M @ v)
    S = M + M.T
    candidates = []
    v_int = np.linalg.solve(S, M.sum(axis=0))
    if 0.0 <= v_int[0] <= v_int[1] <= 1.0:
        candidates.append(v_int)
    # v1 = 0: maximize the scalar quadratic in v2
    v2 = M.sum(axis=0)[1] / S[1, 1]
    candidates.append(np.array([0.0, min(max(v2, 0.0), 1.0)]))
    # v1 = v2 = w: the constant pricing line
    w = M.sum() / S.sum()
    w = min(max(w, 0.0), 1.0)
    candidates.append(np.array([w, w]))
    best = max(candidates, key=value)
    return best, value(best)
