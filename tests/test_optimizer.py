import numpy as np
import pytest

from postedprice import (DiscountOrderWarning, DiscountSequence,
                         InvalidParameterError, Uniform, discount_rates,
                         make_geometric_discount, maximize_L, project_to_delta,
                         rate_order_satisfied, t2_uniform_qp)
from postedprice.optimizer import _pointwise_leq, maximize_bilinear
from postedprice.reduction import reduced_T2_functional


# ---------------------------------------------------------------------------
# projection


def test_projection_pools_violators():
    assert project_to_delta([3.0, 1.0, 2.0]) == pytest.approx([2.0, 2.0, 2.0])


def test_projection_is_identity_on_feasible_points():
    x = np.array([0.0, 0.2, 0.2, 0.9])
    assert project_to_delta(x) == pytest.approx(x)
    assert project_to_delta(project_to_delta([3.0, -1.0, 2.0])) == pytest.approx(
        project_to_delta([3.0, -1.0, 2.0]))


def test_projection_clamps_negatives():
    assert project_to_delta([-3.0, -1.0, -2.0]) == pytest.approx([0.0, 0.0, 0.0])
    assert project_to_delta([-1.0, 0.5]) == pytest.approx([0.0, 0.5])


def test_projection_is_closest_feasible_point():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        x = rng.normal(0.0, 2.0, k)
        proj = project_to_delta(x)
        d_proj = np.linalg.norm(x - proj)
        for _ in range(50):
            candidate = np.sort(np.abs(rng.normal(0.0, 2.0, k)))
            assert d_proj <= np.linalg.norm(x - candidate) + 1e-12


# ---------------------------------------------------------------------------
# discount rates


def test_discount_rates_examples():
    assert discount_rates(make_geometric_discount(0.5, 3)) == pytest.approx((0.5, 0.5))
    assert discount_rates(DiscountSequence([1.0, 0.8, 0.64])) == pytest.approx((0.8, 0.8))
    assert discount_rates(DiscountSequence([1.0, 0.0])) == (0.0,)


def test_rate_order():
    gb = make_geometric_discount(0.2, 3)
    gs = make_geometric_discount(0.8, 3)
    assert rate_order_satisfied(gb, gs)
    assert not rate_order_satisfied(gs, gb)
    assert rate_order_satisfied(gb, gb)
    # infinite geometric pairs compare by rate
    assert rate_order_satisfied(make_geometric_discount(0.2), make_geometric_discount(0.8))
    # an aggregated tail can only raise the final seller rate
    assert rate_order_satisfied(DiscountSequence([1.0, 0.2, 0.05]),
                                DiscountSequence([1.0, 0.8, 3.2]))
    # mixed pairs: a finite sequence drops to rate 0 after its last round
    g = make_geometric_discount
    assert rate_order_satisfied(g(0.2, 3), g(0.5))
    assert not rate_order_satisfied(g(0.5, 3), g(0.4))
    assert not rate_order_satisfied(g(0.2), g(0.9, 3))
    # the pointwise (patience) order reads the same rounds
    assert _pointwise_leq(g(0.9, 3), g(0.95))
    assert not _pointwise_leq(g(0.95), g(0.9, 3))  # mass beyond the finite horizon
    assert _pointwise_leq(g(0.2), g(0.8)) and not _pointwise_leq(g(0.8), g(0.2))
    for predicate in (rate_order_satisfied, _pointwise_leq):
        with pytest.raises(InvalidParameterError):
            predicate(g(0.2, 2), g(0.8, 3))


# ---------------------------------------------------------------------------
# maximization


def test_equal_discounts_recover_constant_pricing():
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5, 2)
    result = maximize_L(u, g, g, starts=8, seed=0)
    assert result.value == pytest.approx(0.25 * g.total, abs=1e-6)
    assert result.v_star == pytest.approx([0.5, 0.5, 0.5], abs=1e-4)
    assert result.converged
    assert np.allclose(list(result.tree.prices().values()), 0.5, atol=1e-4)


def test_optimum_beats_constant_baseline():
    u = Uniform(0, 1)
    for gs_rate, gb_rate in [(0.8, 0.2), (0.7, 0.4), (0.9, 0.6)]:
        gb = make_geometric_discount(gb_rate, 2)
        gs = make_geometric_discount(gs_rate, 2)
        result = maximize_L(u, gb, gs, starts=8, seed=1)
        assert result.value >= gs.total * 0.25 - 1e-6


def test_warns_when_rate_order_is_violated():
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.8, 2)
    gs = make_geometric_discount(0.2, 2)
    with pytest.warns(DiscountOrderWarning):
        maximize_L(u, gb, gs, starts=4, seed=0)


def test_result_value_is_L_at_v_star():
    from postedprice import L_value, build_system
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.3, 2)
    gs = make_geometric_discount(0.8, 2)
    result = maximize_L(u, gb, gs, starts=8, seed=5)
    sys_ = build_system(gb, gs)
    assert result.value == pytest.approx(L_value(sys_, u, result.v_star), abs=1e-12)
    assert result.v_star[0] >= 0 and np.all(np.diff(result.v_star) >= 0)


def test_converged_when_a_tied_run_certified():
    # at T=5 most starts certify, but the lexicographically smallest of the
    # tied best points belongs to a run that stopped short of the tolerance
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.3, 5)
    gs = make_geometric_discount(0.8, 5)
    result = maximize_L(u, gb, gs)
    assert result.converged
    assert result.kkt_residual <= 1e-9


def test_deterministic_given_seed():
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.35, 2)
    gs = make_geometric_discount(0.75, 2)
    a = maximize_L(u, gb, gs, starts=8, seed=9)
    b = maximize_L(u, gb, gs, starts=8, seed=9)
    assert a.value == b.value
    assert a.v_star == pytest.approx(b.v_star, abs=0.0)


def test_ascent_improves_on_every_start_value():
    u = Uniform(0, 1)
    _, matrix = reduced_T2_functional(0.8, 0.2, u)
    v, value, iters, ok, kkt = maximize_bilinear(matrix, u, starts=6, seed=0)
    # the run must end at least as high as the best starting value it saw
    from postedprice.reduction import _bilinear_value
    start_value = _bilinear_value(matrix, u, np.full(2, 0.5))
    assert value >= start_value - 1e-12
    assert iters >= 1


def test_t2_qp_matches_gradient_path():
    u = Uniform(0, 1)
    for gs_rate, gb_rate in [(0.8, 0.2), (0.6, 0.3), (0.9, 0.45)]:
        v_qp, value_qp = t2_uniform_qp(gs_rate, gb_rate)
        _, matrix = reduced_T2_functional(gs_rate, gb_rate, u)
        v_pg, value_pg, _, _, _ = maximize_bilinear(matrix, u, starts=8, seed=2)
        assert value_pg == pytest.approx(value_qp, abs=1e-9)
        assert v_pg == pytest.approx(v_qp, abs=1e-4)


def test_t2_qp_rejects_bad_rates():
    with pytest.raises(InvalidParameterError):
        t2_uniform_qp(0.2, 0.8)


def test_projection_input_validation():
    with pytest.raises(InvalidParameterError):
        project_to_delta(np.zeros((2, 2)))


def test_projection_matches_general_qp_solver():
    # independent oracle: solve the projection QP with SLSQP and compare
    from scipy.optimize import minimize
    rng = np.random.default_rng(31)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        x = rng.normal(0.0, 2.0, k)
        proj = project_to_delta(x)
        constraints = [{"type": "ineq", "fun": lambda v, i=i: v[i + 1] - v[i]}
                       for i in range(k - 1)]
        constraints.append({"type": "ineq", "fun": lambda v: v[0]})
        ref = minimize(lambda v: 0.5 * np.sum((v - x) ** 2),
                       np.maximum(np.sort(x), 0.0), constraints=constraints,
                       method="SLSQP")
        assert ref.success
        assert proj == pytest.approx(ref.x, abs=1e-6)
