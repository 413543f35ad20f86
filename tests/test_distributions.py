import numpy as np
import pytest
from scipy import integrate

from postedprice import (Beta, InvalidParameterError, TruncatedExponential,
                         Uniform, myerson_price, parse_distribution,
                         static_revenue)

ALL_DISTS = [Uniform(0, 1), Uniform(0.2, 1.6), Beta(4, 2), Beta(2, 4),
             TruncatedExponential(1, 1), TruncatedExponential(2.5, 0.8)]

# p*, H* frozen from an independent 10^6-point grid scan of p * (1 - F(p))
GRID_ORACLE = {
    "beta:4,2": (0.535692, 0.409648251967),
    "beta:2,4": (0.275978, 0.159554510112),
    "texp:1,1": (0.432857, 0.192265389350),
}


def test_static_revenue_uniform():
    u = Uniform(0, 1)
    assert static_revenue(u, 0.5) == pytest.approx(0.25)
    assert static_revenue(u, 0.0) == 0.0
    assert static_revenue(u, 1.0) == pytest.approx(0.0)


def test_static_revenue_rejects_negative_price():
    for price in (-0.1, float("nan"), float("inf"), "0.5", True):
        with pytest.raises(InvalidParameterError,
                           match="price must be finite and non-negative, got"):
            static_revenue(Uniform(0, 1), price)


def test_myerson_uniform():
    p_star, h_star = myerson_price(Uniform(0, 1))
    assert p_star == pytest.approx(0.5, abs=1e-15)
    assert h_star == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("hi", [1e7, 1e300])
def test_myerson_wide_uniform_support(hi):
    # the root of the revenue slope is found to a few float spacings of the
    # bracket, however wide the support
    p_star, h_star = myerson_price(Uniform(0, hi))
    assert p_star == pytest.approx(hi / 2, rel=1e-12)
    assert h_star == pytest.approx(hi / 4, rel=1e-12)


@pytest.mark.parametrize("spec", sorted(GRID_ORACLE))
def test_myerson_matches_grid_oracle(spec):
    p_ref, h_ref = GRID_ORACLE[spec]
    p_star, h_star = myerson_price(parse_distribution(spec))
    assert p_star == pytest.approx(p_ref, abs=2e-6)
    assert h_star == pytest.approx(h_ref, abs=1e-10)


@pytest.mark.parametrize("method", ["cdf", "pdf", "dpdf", "sf", "quantile"])
@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_values_are_numpy_scalars_or_same_shape_arrays(dist, method):
    f = getattr(dist, method)
    first = f(np.array([0.3]))[0]  # 0.3 lies inside every support and (0, 1)
    for scalar in (0.3, np.array(0.3)):
        out = f(scalar)
        assert np.ndim(out) == 0 and isinstance(out, float)
        assert out == first
    out = f(np.linspace(0.25, 0.75, 5))
    assert isinstance(out, np.ndarray) and out.shape == (5,)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_density_integrates_to_one(dist):
    lo, hi = dist.support
    x, w = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for a, b in zip(np.linspace(lo, hi, 9)[:-1], np.linspace(lo, hi, 9)[1:]):
        half = 0.5 * (b - a)
        total += half * np.dot(w, dist.pdf(0.5 * (a + b) + half * x))
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_cdf_pdf_consistency(dist):
    lo, hi = dist.support
    v = np.linspace(lo, hi, 102)[1:-1]
    h = 1e-6 * (hi - lo)
    derivative = (dist.cdf(v + h) - dist.cdf(v - h)) / (2 * h)
    assert np.max(np.abs(derivative - dist.pdf(v))) < 1e-4


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_dpdf_matches_difference_quotient_of_pdf(dist):
    lo, hi = dist.support
    v = np.linspace(lo, hi, 102)[1:-1]
    h = 1e-6 * (hi - lo)
    derivative = (dist.pdf(v + h) - dist.pdf(v - h)) / (2 * h)
    assert derivative == pytest.approx(dist.dpdf(v), rel=1e-6)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_dpdf_is_zero_outside_support(dist):
    lo, hi = dist.support
    outside = np.array([lo - 1.0, lo - 1e-9, hi + 1e-9, hi + 1.0])
    assert np.all(dist.dpdf(outside) == 0.0)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_cdf_shape(dist):
    lo, hi = dist.support
    v = np.linspace(lo, hi, 200)
    F = dist.cdf(v)
    assert F[0] == pytest.approx(0.0, abs=1e-12)
    assert F[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(F) >= -1e-12)
    assert dist.cdf(lo - 1.0) == 0.0 and dist.cdf(hi + 1.0) == 1.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_quantile_inverts_cdf(dist):
    q = np.linspace(0.01, 0.99, 25)
    v = dist.quantile(q)
    assert dist.cdf(v) == pytest.approx(q, abs=1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_mean_matches_quadrature(dist):
    lo, hi = dist.support
    x, w = np.polynomial.legendre.leggauss(96)
    total = 0.0
    for a, b in zip(np.linspace(lo, hi, 9)[:-1], np.linspace(lo, hi, 9)[1:]):
        half = 0.5 * (b - a)
        nodes = 0.5 * (a + b) + half * x
        total += half * np.dot(w, nodes * dist.pdf(nodes))
    assert dist.mean == pytest.approx(total, abs=1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_maximum_dominates_support_grid(dist):
    p_star, h_star = myerson_price(dist)
    lo, hi = dist.support
    grid = np.linspace(lo, hi, 1000)
    values = grid * dist.sf(grid)
    assert np.max(values) <= h_star + 1e-9
    # leftmost-ness: nothing materially left of p_star matches the maximum
    step = (hi - lo) / 999
    left = grid < p_star - step
    assert not np.any(values[left] >= h_star - 1e-12)


def test_parse_distribution():
    assert isinstance(parse_distribution("uniform:0,1"), Uniform)
    assert parse_distribution("beta:4,2").alpha == 4
    texp = parse_distribution("texp:1,1")
    assert texp.rate == 1 and texp.bound == 1
    for bad in ("nope:1", "beta:4", "uniform:1,0", "beta:-1,2", "texp:0,1", "",
                "beta:nan,1", "beta:inf,1", "texp:nan,1", "texp:inf,1"):
        with pytest.raises(InvalidParameterError):
            parse_distribution(bad)


@pytest.mark.parametrize("family, args, what", [
    (Uniform, ("0", "1"), "uniform lo"),
    (Uniform, (0, float("inf")), "uniform hi"),
    (Uniform, (-1, 1), "uniform lo"),
    (Beta, (True, 2), "beta alpha"),
    (Beta, (2, -1), "beta beta"),
    (TruncatedExponential, ("1", 1), "texp rate"),
    (TruncatedExponential, (1, float("nan")), "texp bound"),
])
def test_parameters_go_through_the_nonnegative_rule(family, args, what):
    with pytest.raises(InvalidParameterError, match=f"^{what} must be finite and non-negative"):
        family(*args)


@pytest.mark.parametrize("family, args", [
    (Uniform, (1, 1)), (Uniform, (1, 0.5)), (Beta, (0, 1)), (Beta, (1e308, 1e308)),
    (TruncatedExponential, (1, 0)), (TruncatedExponential, (1e308, 1e308)),
])
def test_range_checks_stay_with_each_family(family, args):
    with pytest.raises(InvalidParameterError, match="needs"):
        family(*args)


def test_texp_closed_forms():
    d = TruncatedExponential(1, 1)
    e = np.e
    assert d.mean == pytest.approx(1 - 1 / (e - 1), abs=1e-12)
    assert d.cdf(1.0) == pytest.approx(1.0)
    assert d.pdf(0.0) == pytest.approx(1 / (1 - 1 / e))


@pytest.mark.parametrize("rate", [36.0, 38.0, 1e4])
def test_texp_quantile_stays_in_the_support(rate):
    # 1 - exp(-rate) rounds to within an ulp of 1 (or to 1, where log1p(-1) = -inf)
    d = TruncatedExponential(rate, 1.0)
    assert d.quantile(1.0) == 1.0
    assert np.all(d.quantile(np.linspace(0.0, 1.0, 11)) <= 1.0)


@pytest.mark.parametrize("rate", [1e-300, 1e-12, 1e-6, 1.0, 50.0, 1e4])
def test_texp_mean_at_extreme_rates(rate):
    d = TruncatedExponential(rate, 1.0)
    reference, _ = integrate.quad(lambda v: v * d.pdf(v), 0.0, 1.0, epsabs=0.0,
                                  epsrel=1e-13, limit=200,
                                  points=[1.0 / rate] if rate > 1 else None)
    assert d.mean == pytest.approx(reference, rel=1e-12)


def test_uniform_mean_near_the_float_ceiling_is_finite():
    mean = Uniform(1e308, 1.7e308).mean
    assert np.isfinite(mean)
    assert mean == pytest.approx(1.35e308, rel=1e-15)


def test_beta_integer_cdf_closed_form():
    d = Beta(4, 2)
    v = np.linspace(0, 1, 11)
    assert d.cdf(v) == pytest.approx(5 * v**4 - 4 * v**5, abs=1e-12)
