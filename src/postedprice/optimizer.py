"""Maximization of the revenue form over the ordered cone Delta^k.

Multi-start projected gradient ascent with Armijo backtracking from a
spectral first trial step, the step that the curvature along the last move
calls for (Barzilai & Borwein 1988, IMA J. Numer. Anal. 8).  The
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
way: certified at 1e-9.  A Newton step that leaves the cone is not thrown
away: the run searches its projection arc for a point that passes the
Armijo test, by the one backtracking search that every ascent move goes
through (projected search, More & Toraldo 1991, SIAM J. Optim. 1).
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
from numpy.random import default_rng  # eager: numpy would load it lazily, in the first solve

from .core import DiscountSequence, PricingTree, _positive_int, rate_order_satisfied
from .distributions import ValuationDistribution, myerson_price
from .errors import InvalidParameterError, PatienceOrderWarning
from .reduction import (L_gradient, L_hessian, build_system, revenue_terms, terms_gradient,
                        v_to_tree)

__all__ = [
    "OptimizationResult",
    "project_to_delta",
    "maximize_L",
    "maximize_bilinear",
]


def _load_pava():
    """SciPy's compiled PAVA kernel, the `pava` of `scipy.optimize._pava_pybind`,
    loaded from its file in SciPy's package directory, which is found without
    importing `scipy`; the module is left out of `sys.modules`.  `import
    scipy.optimize` would run that package's `__init__`, which loads `scipy.linalg`,
    `linprog` and `shgo` too: most of what importing this package cost, and the
    kernel needs none of it."""
    name = "scipy.optimize._pava_pybind"
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    finder = FileFinder(os.path.join(scipy_dir, "optimize"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled {name} in {finder.path}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.pava


pava = _load_pava()

KKT_TOL = 1e-9  # gradient-mapping norm that certifies a point
MAX_ITER = 100_000  # iterations of one ascent start, Newton steps included
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
FACE_STABLE_ITERS = 2  # iterations a face must hold before Newton is tried on it
NEWTON_MAX_STEPS = 10  # Newton steps per try on a face
ARC_MIN = 2.0 ** -10  # shortest fraction of a Newton step that the arc search tries
WARM_RANDOM_STARTS = 2  # seeded draws in the reduced start list that follows a warm start


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of maximizing the revenue form over Delta^k; `starts` counts the ascent runs made."""

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
    cone, so the composition is the exact projection.  The regression calls
    SciPy's compiled PAVA kernel (`scipy.optimize._pava_pybind.pava`, loaded
    from its file by `_load_pava`, so `scipy.optimize` is never imported) with
    the unit weights and block indices that `isotonic_regression` gives it,
    without that wrapper's per-call overhead.  The kernel is private to
    SciPy, so a test pins this function to `isotonic_regression` byte for byte.
    """
    x = np.array(x, dtype=float)  # a contiguous copy: the kernel works in place
    if x.ndim != 1 or x.size == 0:
        raise InvalidParameterError("expected a non-empty 1-d vector")
    iso, _, _, _ = pava(x, np.ones(x.size), np.full(x.size + 1, -1, dtype=np.intp))
    return np.maximum(iso, lo)


def _gradient_mapping(x: np.ndarray, g: np.ndarray, step0: float, lo: float):
    """project(x + step0 g) and its distance from x over step0: 0 exactly at a KKT point."""
    reference = project_to_delta(x + step0 * g, lo)
    d = (reference - x) / step0
    return reference, math.sqrt(d @ d)


def _face(x: np.ndarray, lo: float) -> bytes:
    """The face of the cone that x lies on: the bytes of the boolean array
    [x_1 == lo, x_2 == x_1, ..., x_k == x_{k-1}].

    Exact comparisons suffice: the projection leaves pooled values equal
    and the ones it clamped at `lo` equal to `lo`.  The ascent compares two
    faces on every iteration, and bytes compare faster than arrays do.
    """
    return (b"\x01" if x[0] == lo else b"\x00") + (x[1:] == x[:-1]).tobytes()


def _face_newton(matrix: np.ndarray, dist: ValuationDistribution, face: bytes,
                 x: np.ndarray, g: np.ndarray, f: float, step0: float, budget: int, lo: float):
    """Newton's method on the block values of x's face `face` (`_face`), from x (gradient g).

    Each pooled block moves as one value, v = B u, and the block at `lo`
    stays there.  Returns (steps, polished, leave): polished is (v, value,
    kkt) for the first Newton point that is feasible, worth at least f, and
    certified by the gradient mapping at `KKT_TOL`, or None when no point
    within `budget` steps is.  leave is (v, d, g, value) when the Newton
    step d from v (x or a feasible Newton point, gradient g) leaves the
    cone, value being the larger of f and v's value, which a point of
    the step's projection arc must reach (`_armijo_search` from v); None
    otherwise.
    """
    labels = np.cumsum(~np.frombuffer(face, dtype=bool))  # label 0 marks the block at lo
    blocks = (labels[:, None] == np.arange(1, labels[-1] + 1)).astype(float)
    v, value = x, f
    for step in range(1, budget + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # f' * M v can overflow
            curvature = -(blocks.T @ L_hessian(matrix, dist, v) @ blocks)
        if not np.isfinite(curvature).all():  # no Newton step, as for an indefinite one
            return step, None, None
        try:  # step only where the face's reduced Hessian is negative definite
            np.linalg.cholesky(curvature)
        except np.linalg.LinAlgError:
            return step, None, None
        d = blocks @ np.linalg.solve(curvature, blocks.T @ g)
        v_new = v + d
        if not (v_new[0] >= lo and np.all(v_new[1:] >= v_new[:-1])):
            return step, None, (v, d, g, value)
        v = v_new
        terms = revenue_terms(matrix, dist, v)
        g = terms_gradient(matrix, dist, v, terms)
        value = max(f, terms[0])
        _, kkt = _gradient_mapping(v, g, step0, lo)
        if kkt <= KKT_TOL and terms[0] >= f:
            return step, (v, terms[0], kkt), None
    return budget, None, None


def _armijo_search(matrix: np.ndarray, dist: ValuationDistribution, x: np.ndarray,
                   f: float, g: np.ndarray, trial, t: float, t_min: float):
    """The ascent's one backtracking rule, for any move from x (value f, gradient g):
    the first point trial(t), t halved by `ARMIJO_SHRINK` down to t_min, that passes
    the Armijo test and is worth at least f, as (point, its `revenue_terms`, t);
    None if no point passes or the first that passes does not move (projected
    search, More & Toraldo 1991)."""
    while t >= t_min:
        x_new = trial(t)
        terms_new = revenue_terms(matrix, dist, x_new)
        f_new = terms_new[0]
        if math.isfinite(f_new) and f_new >= f + ARMIJO_C * float(g @ (x_new - x)) \
                and f_new >= f:
            return (x_new, terms_new, t) if (x_new != x).any() else None
        t *= ARMIJO_SHRINK
    return None


def _projected_ascent(matrix: np.ndarray, dist: ValuationDistribution,
                      x0: np.ndarray, step0: float, lo: float):
    """One run of projected gradient ascent with Armijo backtracking from x0.

    x0 must lie in the cone: the run takes it as drawn.  Each line search
    starts at the spectral step t = step0 * clip(s's / -s'y, 1e-14, 1e6)
    (Barzilai & Borwein 1988) when s'y < 0, s the last move in reference
    steps (so s's stays in the float range at every support width) and y
    the change in the gradient; otherwise at twice the last accepted step.
    It halves t until the Armijo test passes, so accepted line-search
    steps never decrease the objective.  Near the optimum the objective
    differences underflow double precision before the gradient mapping
    does, so once the line search stalls the run switches to plain
    fixed-step projected iterations, which contract to the optimum without
    comparing objective values.  Once the iterate's face has held for
    `FACE_STABLE_ITERS` iterations, Newton's method on that face is tried
    once (`_face_newton`); each Newton step counts as an iteration.  A
    Newton step that leaves the cone is followed along its projection arc,
    from a = 1 down to `ARC_MIN`: the first arc point that passes is that
    iteration's move, in place of the line search, and leaves the step
    alone.  Both moves go through one search (`_armijo_search`).  The run stops
    when the gradient-mapping norm (at the reference step) is under
    `KKT_TOL` or stops decreasing, or after `MAX_ITER` iterations.
    A run never returns less than it found: if the final point is worth
    less than the best iterate by more than rounding (1e-12 relative), the
    best iterate is returned.  Returns (x, f, iterations, kkt), kkt the
    gradient mapping at the returned x, so the run certified if kkt <=
    `KKT_TOL`.  A start whose value is not finite returns at once, after
    no iterations; otherwise a reference step so large that the line
    search's longest step, 1e6 of them, overflows is refused with
    `InvalidParameterError`, since no search could end.  Each point's
    `revenue_terms` are formed once: the point's value and, once it is
    accepted, the next iteration's gradient are both taken from them.
    """
    x = x0
    with np.errstate(invalid="ignore", over="ignore"):
        terms = revenue_terms(matrix, dist, x)
    f = terms[0]
    if not np.isfinite(f):  # the form overflowed at the start; no step can mend that
        return x, f, 0, np.inf
    if not step0 <= np.finfo(float).max / 1e6:  # the line search's longest step overflows
        raise InvalidParameterError(
            f"the support is too wide for the ascent: (top - lo) / ||M||_1 = {step0:g}")
    best_x, best_f = x, f
    step = step0
    best_kkt = np.inf
    stalled = 0
    face, face_age = _face(x, lo), 0
    x_prev = g_prev = None
    it = 0
    while it < MAX_ITER:
        it += 1
        g = terms_gradient(matrix, dist, x, terms)
        reference, kkt = _gradient_mapping(x, g, step0, lo)
        if kkt <= KKT_TOL:  # certified
            break
        if kkt < best_kkt * (1.0 - 1e-4):
            best_kkt = kkt
            stalled = 0
        else:
            stalled += 1
            if stalled > 250:  # gradient mapping hit its noise floor; kkt is x's
                break
        current = _face(x, lo)
        if current == face:
            face_age += 1
        else:
            face, face_age = current, 0
        move = None
        if face_age == FACE_STABLE_ITERS:
            steps, polished, leave = _face_newton(matrix, dist, face, x, g, f, step0,
                                                  min(NEWTON_MAX_STEPS, MAX_ITER - it), lo)
            it += steps
            if polished is not None:  # certified on the face, with its kkt
                x, f, kkt = polished
                break
            if leave is not None:  # follow the Newton step's projection arc
                v, d, g_v, f_v = leave
                move = _armijo_search(matrix, dist, v, f_v, g_v,
                                      lambda a: project_to_delta(v + a * d, lo), 1.0, ARC_MIN)
        if move is None:  # no arc move: a line search along the gradient
            t = min(step * 2.0, step0 * 1e6)
            if x_prev is not None:  # the last move s, in reference steps; the gradient's change y
                s, y = (x - x_prev) / step0, g - g_prev
                sy = float(s @ y)
                if sy < 0:  # negative curvature along s: the spectral step
                    t = step0 * min(max(float(s @ s) / -sy, 1e-14), 1e6)
            # the reference step's point is the gradient mapping's, already projected
            move = _armijo_search(matrix, dist, x, f, g, lambda t: reference if t == step0
                                  else project_to_delta(x + t * g, lo), t, step0 * 1e-14)
            if move is None:
                # objective comparisons are below float resolution; take the
                # reference step anyway and keep watching the gradient mapping
                move = reference, revenue_terms(matrix, dist, reference), step0
            step = move[2]  # an arc move leaves the step alone
        x_prev, g_prev = x, g
        x, terms, _ = move
        f = terms[0]
        if f > best_f:
            best_x, best_f = x, f
    else:  # MAX_ITER iterations: the last iterate's certificate
        _, kkt = _gradient_mapping(x, terms_gradient(matrix, dist, x, terms), step0, lo)
    if f < best_f - 1e-12 * abs(best_f):
        x, f = best_x, best_f
        _, kkt = _gradient_mapping(x, L_gradient(matrix, dist, x), step0, lo)
    return x, f, it, kkt


def _start_count(starts: int | None, k: int) -> int:
    """The number of ascent starts: `starts` (a positive integer), or max(16, k) if None."""
    return max(16, k) if starts is None else _positive_int(starts, "starts")


def _start_points(dist: ValuationDistribution, k: int, count: int, p_star: float,
                  seed: int) -> Iterator[np.ndarray]:
    """The full start list, `count` points of the cone: the constant vector at p_star,
    the distribution's k quantiles at levels i / (k + 1), then sorted rows of the
    distribution's quantiles at one seeded uniform draw of levels in [0, 1], so for a
    seed a shorter list is a prefix of a longer one, and the rows lie where the mass
    is.  Under `Uniform(lo, hi)` a row is what a uniform draw over [lo, hi] gives,
    bit for bit.  The points are yielded in order, and a row's quantiles are taken
    only when it is reached, so a solve that stops after a warm start's reduced list
    maps a few rows, not all (the 61 rows of the default list take about 4 ms on
    `Beta(4, 2)` at k = 63, where the runs of a warm solve take about 20 ms)."""
    rng = default_rng(seed)
    levels = rng.uniform(0.0, 1.0, size=(max(count - 2, 0), k))
    yield np.full(k, p_star)
    if count > 1:
        yield np.sort(dist.quantile(np.linspace(0.0, 1.0, k + 2)[1:-1]))
    for row in levels:
        yield np.sort(dist.quantile(row))


def _warm_start(warm, k: int, lo: float) -> np.ndarray:
    """`warm` as a start of the ascent, refused unless it is a point of the cone in R^k."""
    x = np.array(warm, dtype=float)
    if x.shape != (k,) or not (np.all(np.isfinite(x)) and x[0] >= lo
                               and np.all(x[1:] >= x[:-1])):
        raise InvalidParameterError(
            f"a warm start must be a finite vector of length {k} with lo <= v_1 <= ... <= v_k")
    return x


def _best(runs: list) -> tuple:
    """The run (f, x, kkt, iterations) a solve returns: the best value f; among runs
    within 1e-10 relative of it, a certified one first, then the lexicographically
    smallest x."""
    best_f = max(r[0] for r in runs)
    tied = [r for r in runs if r[0] >= best_f - 1e-10 * abs(best_f)]
    return min(tied, key=lambda r: (not r[2] <= KKT_TOL, tuple(r[1])))


def maximize_bilinear(matrix: np.ndarray, dist: ValuationDistribution, *,
                      starts: int | None = None, seed: int = 0,
                      warm=None) -> tuple[np.ndarray, float, int, bool, float, int]:
    """Multi-start ascent of (1 - F(v))' M v over lo <= v_1 <= ... <= v_k for kernel M.

    Returns (v, value, iterations, converged, kkt, runs): the best point and
    its value, the iterations of all runs together, whether the returned
    point is certified and its gradient mapping, and the number of ascent
    runs made.

    Start points.  The full list has `starts` points (default max(16, k)):
    the constant vector at the one-shot optimal price, the distribution's
    quantiles, and sorted rows of the quantiles at one seeded uniform draw of
    levels, so the random starts follow the distribution's mass.
    Without `warm` every point of it is run.  With `warm`, a point of the
    cone such as a neighbouring game's optimum, a reduced list is run first:
    the warm start, then the first min(starts, 2 + `WARM_RANDOM_STARTS`)
    points of the full list, which are the same points for the same seed.
    If the run that the reduced list would return is not certified, the
    rest of the full list is run too, and the solve returns the best of all
    `starts` + 1 runs: a warm start ends uncertified only where the full
    list's best value is not certified either, or the warm run beats it.
    `runs` counts the runs made: `starts` without a warm start, and with
    one either the reduced list's length or `starts` + 1.

    Among runs tying for the best value (within 1e-10 relative) a certified
    run is preferred, then the lexicographically smallest point, so results
    are stable and `converged` holds whenever a tied run certified.  If the
    gradient mapping moves that point by more than its rounding, it takes
    one more Newton step on its face, within its run's `MAX_ITER`, kept if
    it certifies with a smaller residual: a run certified at `KKT_TOL`
    wins the tie-break as often as one polished to rounding.  The
    solve is refused with `InvalidParameterError` as soon as a run's value
    is not finite: the form overflowed there, and the best finite run would
    understate an optimum that overflows too.  A warm start that is not a
    point of the cone is refused the same way.

    Steps are in the mass's reach: the reference step is (top - lo) / ||M||_1,
    top - lo the next power of two above the 1 - 1e-12 quantile's offset
    from lo, capped at hi - lo.  L is homogeneous of degree 1 in v and its
    gradient does not change with the scale, so scaling the support by a
    power of two H scales every iterate by H, and `KKT_TOL` means the same
    at every width.  `KKT_TOL` is in the kernel's units: scaling M scales
    the gradient mapping with it.  A support so wide that the line search's
    longest step, 1e6 reference steps, is not finite is refused with
    `InvalidParameterError` (after a start whose value is not finite, if any).

    The cone's floor is the support's lower end lo, not 0.  On a game's
    kernel (`build_system`'s Xi, or the 2x2 `reduced_T2_functional`
    kernel) this loses nothing.  With s = 1 - F(v), L(v) = s' M v, and s = 1 wherever v <= lo,
    so moving values that lie below lo, within [0, lo], leaves s alone and
    changes L by s' M d, d the move.  Raising the values below lo to lo is
    a sum of moves that raise a run of consecutive values together, and
    each such move is worth s' M e_[l..m] >= 0:
    - Xi = dK_bs W^-1 (`build_system`), with dK = J K (J takes each row
      less the one before) and W^-1 = K_bb^-1 J^-1 diag(gaps); summing by
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

    with np.errstate(over="ignore"):
        # the mass's reach, a power of two; hi - lo unless the mass ends far below hi
        top = min(hi, lo + np.ldexp(1.0, math.frexp(dist.quantile(1.0 - 1e-12) - lo)[1]))
        step0 = (top - lo) / max(np.linalg.norm(matrix, 1), 1e-12)

    x0s = _start_points(dist, k, starts, p_star, seed)
    reduced = starts
    if warm is not None:
        x0s = itertools.chain([_warm_start(warm, k, lo)], x0s)
        reduced = 1 + min(starts, 2 + WARM_RANDOM_STARTS)
    runs = []
    total_iters = 0
    for i, x0 in enumerate(x0s):
        if i == reduced and _best(runs)[2] <= KKT_TOL:
            break
        x, f, iters, kkt = _projected_ascent(matrix, dist, x0, step0, lo)
        total_iters += iters
        if not np.isfinite(f):
            raise InvalidParameterError(f"the revenue form is not finite at start {i}")
        runs.append((f, x, kkt, iters))
    f, x, kkt, iters = _best(runs)
    if kkt * step0 > np.finfo(float).eps * math.hypot(*x):  # x moves by more than its rounding
        steps, polished, _ = _face_newton(matrix, dist, _face(x, lo), x,
                                          L_gradient(matrix, dist, x), f, step0,
                                          min(1, MAX_ITER - iters), lo)
        total_iters += steps
        if polished is not None and polished[2] < kkt:
            x, f, kkt = polished
    return x, f, total_iters, kkt <= KKT_TOL, kkt, len(runs)


def maximize_L(dist: ValuationDistribution, buyer_discount: DiscountSequence,
               seller_discount: DiscountSequence, *, starts: int | None = None,
               seed: int = 0, warm=None) -> OptimizationResult:
    """Revenue-maximal pricing tree for one finite game, via the cone reduction.

    Builds the reduction system, ascends L from multiple starts, and maps
    the winning point back to its tree.  `starts`, `seed` and `warm` go to
    `maximize_bilinear`, which documents the start list, the reduced list
    that a warm start (a point v of this game's cone, such as the `v_star`
    of a neighbouring game) runs first, and its fall-back to the full list;
    `starts` in the result counts the ascent runs made.  An infinite game
    is solved on its `truncate`.  Revenue is solved for in the seller's
    first-round units: the ascent runs on Xi / gs_1 and the value reported
    is gs_1 times its value, so `kkt_residual` is in those units, and
    scaling either discount by a power of two runs the same solve.  If the discount rates violate
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
    v, value, iters, ok, kkt, runs = maximize_bilinear(
        system.Xi / seller_discount.weights[0], dist, starts=starts, seed=seed, warm=warm)
    tree = v_to_tree(system, v)
    return OptimizationResult(v_star=v, value=seller_discount.weights[0] * value, tree=tree,
                              iterations=iters, starts=runs, converged=ok, kkt_residual=kkt)

