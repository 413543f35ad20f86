"""Maximization of the revenue form over the ordered cone Delta^k.

Multi-start projected gradient ascent with Armijo backtracking.  The
feasible set {lo <= v_1 <= ... <= v_k}, lo the support's lower end, admits
an exact Euclidean projection (isotonic regression, then clamped at `lo`;
the two commute on this cone), so no general-purpose NLP solver is
needed.  The form is not concave for unequal discounts, hence the
multi-start.

Each run is polished by Newton's method on the face of the cone it settles
on (projected Newton, Bertsekas 1982), with one value per pooled block.  A
polished point is accepted only if it is feasible, worth at least the
ascent iterate, and passes the same gradient-mapping test at `KKT_TOL`
that certifies an ascent iterate, so `converged` means one thing either
way: certified at 1e-9.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .core import DiscountSequence, PricingTree, _positive_int, rate_order_satisfied
from .distributions import ValuationDistribution, myerson_price
from .errors import InvalidParameterError, PatienceOrderWarning
from .reduction import L_gradient, L_hessian, L_value, build_system, v_to_tree

__all__ = [
    "OptimizationResult",
    "project_to_delta",
    "maximize_L",
    "maximize_bilinear",
]

KKT_TOL = 1e-9  # gradient-mapping norm that certifies a point
MAX_ITER = 100_000  # iterations of one ascent start, Newton steps included
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
FACE_STABLE_ITERS = 2  # iterations a face must hold before Newton is tried on it
NEWTON_MAX_STEPS = 10  # Newton steps per try on a face


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


def project_to_delta(x, lo) -> np.ndarray:
    """Euclidean projection onto {lo <= v_1 <= ... <= v_k}.

    Isotonic regression (pool-adjacent-violators) enforces the ordering;
    the result is then clamped at `lo`.  The two steps commute for this
    cone, so the composition is the exact projection.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidParameterError("expected a non-empty 1-d vector")
    iso = isotonic_regression(x, increasing=True).x
    return np.maximum(iso, lo)


def _gradient_mapping(x: np.ndarray, g: np.ndarray, step0: float, lo: float):
    """project(x + step0 g) and its distance from x over step0: 0 exactly at a KKT point."""
    reference = project_to_delta(x + step0 * g, lo)
    return reference, float(np.linalg.norm((reference - x) / step0))


def _face(x: np.ndarray, lo: float) -> np.ndarray:
    """The face of the cone that x lies on: [x_1 == lo, x_2 == x_1, ..., x_k == x_{k-1}].

    Exact comparisons suffice: the projection leaves pooled values equal
    and the ones it clamped at `lo` equal to `lo`.
    """
    return np.concatenate(([x[0] == lo], x[1:] == x[:-1]))


def _face_newton(matrix: np.ndarray, dist: ValuationDistribution, x: np.ndarray,
                 g: np.ndarray, f: float, step0: float, budget: int, lo: float):
    """Newton's method on the block values of x's face, from x (gradient g).

    Each pooled block moves as one value, v = B u, and the block at `lo`
    stays there.  Returns the steps taken and (v, value, kkt) for the first
    Newton point that is feasible, worth at least f, and certified by the
    gradient mapping at `KKT_TOL`, or None when no point within `budget`
    steps is.
    """
    labels = np.cumsum(~_face(x, lo))  # label 0 marks the block at lo
    blocks = (labels[:, None] == np.arange(1, labels[-1] + 1)).astype(float)
    v = x
    for step in range(1, budget + 1):
        curvature = -(blocks.T @ L_hessian(matrix, dist, v) @ blocks)
        try:  # step only where the face's reduced Hessian is negative definite
            np.linalg.cholesky(curvature)
        except np.linalg.LinAlgError:
            return step, None
        v = v + blocks @ np.linalg.solve(curvature, blocks.T @ g)
        if not (v[0] >= lo and np.all(v[1:] >= v[:-1])):
            return step, None
        g = L_gradient(matrix, dist, v)
        _, kkt = _gradient_mapping(v, g, step0, lo)
        value = L_value(matrix, dist, v)
        if kkt <= KKT_TOL and value >= f:
            return step, (v, value, kkt)
    return budget, None


def _projected_ascent(matrix: np.ndarray, dist: ValuationDistribution,
                      x0: np.ndarray, step0: float, lo: float):
    """One run of projected gradient ascent with Armijo backtracking.

    Accepted line-search steps never decrease the objective.  Near the
    optimum the objective differences underflow double precision before
    the gradient mapping does, so once the line search stalls the run
    switches to plain fixed-step projected iterations, which contract to
    the optimum without comparing objective values.  Once the iterate's
    face has held for `FACE_STABLE_ITERS` iterations, Newton's method on
    that face is tried once (`_face_newton`); each Newton step counts as
    an iteration.  The run stops when the gradient-mapping norm (at the
    reference step) is under `KKT_TOL` or stops decreasing, or after
    `MAX_ITER` iterations.  A run never returns less than it found: if the
    final point is worth less than the best iterate by more than rounding
    (1e-12 relative), the best iterate is returned.  An uncertified run
    reports the gradient mapping at the point it returns, and certifies if
    that passes the test.  A start whose value is not finite returns at
    once, after no iterations; otherwise a reference step so large that
    the line search's longest step, 1e6 of them, overflows is refused
    with `InvalidParameterError`, since no search could end.
    """
    x = project_to_delta(x0, lo)
    with np.errstate(invalid="ignore", over="ignore"):
        f = L_value(matrix, dist, x)
    if not np.isfinite(f):  # the form overflowed at the start; no step can mend that
        return x, f, 0, False, np.inf
    if not step0 <= np.finfo(float).max / 1e6:  # the line search's longest step overflows
        raise InvalidParameterError(
            f"the support is too wide for the ascent: (hi - lo) / ||M||_1 = {step0:g}")
    best_x, best_f = x, f
    step = step0
    kkt = np.inf
    best_kkt = np.inf
    stalled = 0
    face, face_age = _face(x, lo), 0
    it = 0
    ok = False
    while it < MAX_ITER:
        it += 1
        g = L_gradient(matrix, dist, x)
        reference, kkt = _gradient_mapping(x, g, step0, lo)
        if kkt <= KKT_TOL:
            ok = True
            break
        if kkt < best_kkt * (1.0 - 1e-4):
            best_kkt = kkt
            stalled = 0
        else:
            stalled += 1
            if stalled > 250:  # gradient mapping hit its noise floor
                break
        current = _face(x, lo)
        if np.array_equal(current, face):
            face_age += 1
        else:
            face, face_age = current, 0
        if face_age == FACE_STABLE_ITERS:
            steps, polished = _face_newton(matrix, dist, x, g, f, step0,
                                           min(NEWTON_MAX_STEPS, MAX_ITER - it), lo)
            it += steps
            if polished is not None:
                x, f, kkt = polished
                ok = True
                break
        t = min(step * 2.0, step0 * 1e6)
        accepted = False
        while t >= step0 * 1e-14:
            x_new = project_to_delta(x + t * g, lo)
            f_new = L_value(matrix, dist, x_new)
            if np.isfinite(f_new) and f_new >= f + ARMIJO_C * float(g @ (x_new - x)) \
                    and f_new >= f:
                accepted = bool((x_new != x).any())
                break
            t *= ARMIJO_SHRINK
        if accepted:
            x, f, step = x_new, f_new, t
        else:
            # objective comparisons are below float resolution; take the
            # reference step anyway and keep watching the gradient mapping
            x = reference
            f = L_value(matrix, dist, x)
            step = step0
        if f > best_f:
            best_x, best_f = x, f
    if f < best_f - 1e-12 * abs(best_f):
        x, f, ok = best_x, best_f, False
    if not ok:
        _, kkt = _gradient_mapping(x, L_gradient(matrix, dist, x), step0, lo)
        ok = kkt <= KKT_TOL
    return x, f, it, ok, kkt


def _start_count(starts: int | None, k: int) -> int:
    """The number of ascent starts: `starts` (a positive integer), or max(16, 4k) if None."""
    return max(16, 4 * k) if starts is None else _positive_int(starts, "starts")


def maximize_bilinear(matrix: np.ndarray, dist: ValuationDistribution, *,
                      starts: int | None = None,
                      seed: int = 0) -> tuple[np.ndarray, float, int, bool, float]:
    """Multi-start ascent of (1 - F(v))' M v over lo <= v_1 <= ... <= v_k for kernel M.

    Start points: the constant vector at the one-shot optimal price, the
    distribution's quantiles, and seeded random sorted draws.  Among runs
    tying for the best value (within 1e-10 relative) a certified run is
    preferred, then the lexicographically smallest point, so results are
    stable and `converged` holds whenever a tied run certified.  The solve
    is refused with `InvalidParameterError` as soon as a run's value is not
    finite: the form overflowed there, and the best finite run would
    understate an optimum that overflows too.

    Steps are in support widths: the reference step is (hi - lo) / ||M||_1.
    L is homogeneous of degree 1 in v and its gradient does not change with
    the scale, so scaling the support by H scales every iterate by H, and
    `KKT_TOL` means the same at every width.  `KKT_TOL` is in the kernel's
    units: scaling M scales the gradient mapping with it.  A support so
    wide that the line search's longest step, 1e6 reference steps, is not
    finite is refused with `InvalidParameterError` (after a start whose
    value is not finite, if any).

    The cone's floor is the support's lower end lo, not 0.  On a game's
    kernel (`build_system`'s Xi, or the 2x2 `reduced_T2_functional`
    kernel) this loses nothing.  With s = 1 - F(v), L(v) = s' M v, and s = 1 wherever v <= lo,
    so moving values that lie below lo, within [0, lo], leaves s alone and
    changes L by s' M d, d the move.  Raising the values below lo to lo is
    a sum of moves that raise a run of consecutive values together, and
    each such move is worth s' M e_[l..m] >= 0:
    - Xi = J K_bs K_bb^-1 J^-1 diag(gaps) (`build_system`), and summing by
      parts, J^-1 diag(gaps) e_[l..m] = sum_{l <= j <= m} gap_j e_{>=j},
      with every gap > 0 by regularity;
    - K_bb^-1 e_{>=j} is the tree that charges every strategy ranked >= j a
      buyer-discounted 1 and every other strategy 0.  Its price at the
      node after history h, in round t, is the payment of h 1 0..0 minus
      that of h 0 0..0, over gb_t > 0.  Accepting in round t raises the
      quantity and so the rank, so no price is negative;
    - K_bs >= 0 entrywise, and s' J >= 0 since s is non-negative and
      non-increasing on the cone.
    For M = [[gs, 0], [-(gs - gb), 1 + gs - gb]] and s_1 >= s_2 >= 0
    directly: s' M e_1 >= s_2 gb, s' M e_2 >= 0 and s' M e_[1..2] >= 0.
    For other kernels the floor can cut the optimum off: M = [[-1, 0],
    [0, 1]] over Uniform(1, 2) is best at v_1 = 0.
    """
    k = matrix.shape[0]
    starts = _start_count(starts, k)
    p_star, _ = myerson_price(dist)
    lo, hi = dist.support
    rng = np.random.default_rng(seed)

    with np.errstate(over="ignore"):
        step0 = (hi - lo) / max(np.linalg.norm(matrix, 1), 1e-12)

    runs = []
    total_iters = 0
    for i in range(starts):
        if i == 0:
            x0 = np.full(k, p_star)
        elif i == 1:
            x0 = np.sort(dist.quantile(np.linspace(0.0, 1.0, k + 2)[1:-1]))
        else:
            x0 = np.sort(rng.uniform(lo, hi, size=k))
        x, f, iters, ok, kkt = _projected_ascent(matrix, dist, x0, step0, lo)
        total_iters += iters
        if not np.isfinite(f):
            raise InvalidParameterError(f"the revenue form is not finite at start {i}")
        runs.append((f, x, ok, kkt))
    best_f = max(r[0] for r in runs)
    tied = [r for r in runs if r[0] >= best_f - 1e-10 * abs(best_f)]
    tied.sort(key=lambda r: (not r[2], tuple(r[1])))
    f, x, ok, kkt = tied[0]
    return x, f, total_iters, ok, kkt


def maximize_L(dist: ValuationDistribution, buyer_discount: DiscountSequence,
               seller_discount: DiscountSequence, *, starts: int | None = None,
               seed: int = 0) -> OptimizationResult:
    """Revenue-maximal pricing tree for one finite game, via the cone reduction.

    Builds the reduction system, ascends L from multiple starts, and maps
    the winning point back to its tree.  An infinite game is solved on its
    `truncate`.  Revenue is solved for in the seller's first-round units:
    the ascent runs on Xi / gs_1 and the value reported is gs_1 times its
    value, so `kkt_residual` is in those units, and scaling either discount
    by a power of two runs the same solve.  If the discount rates violate
    nu(buyer) <= nu(seller) a `PatienceOrderWarning` is issued: the result
    is still the best completely active pricing, but the global optimality
    guarantee does not apply.
    """
    system = build_system(buyer_discount, seller_discount)
    if not rate_order_satisfied(buyer_discount, seller_discount):
        warnings.warn(
            "discount rates violate nu(buyer) <= nu(seller); the optimum over "
            "completely active pricings may not be globally optimal",
            PatienceOrderWarning, stacklevel=2)
    starts = _start_count(starts, system.k)
    v, value, iters, ok, kkt = maximize_bilinear(
        system.Xi / seller_discount.weights[0], dist, starts=starts, seed=seed)
    tree = v_to_tree(system, v)
    return OptimizationResult(v_star=v, value=seller_discount.weights[0] * value, tree=tree,
                              iterations=iters, starts=starts, converged=ok, kkt_residual=kkt)

