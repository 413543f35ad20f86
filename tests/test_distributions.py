import copy
import pickle

import numpy as np
import pytest
from scipy import integrate, special

from postedprice import (Beta, InvalidParameterError, TruncatedExponential,
                         Uniform, cli, make_geometric_discount, maximize_L,
                         myerson_price, parse_distribution, static_revenue)

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
    # the bisection of the revenue slope ends at two adjacent floats, however
    # wide the support
    p_star, h_star = myerson_price(Uniform(0, hi))
    assert p_star == pytest.approx(hi / 2, rel=1e-12)
    assert h_star == pytest.approx(hi / 4, rel=1e-12)


@pytest.mark.parametrize("hi", [2.0 ** -1009, 8.9e-308])
def test_myerson_refuses_a_support_too_narrow_for_its_scan(hi):
    # the scan spacing hi / 9,999 is below the smallest normal float
    with pytest.raises(InvalidParameterError, match="too narrow"):
        myerson_price(Uniform(0, hi))


def test_myerson_scans_the_narrowest_normal_spacing():
    hi = 2.0 ** -1008
    p_star, h_star = myerson_price(Uniform(0, hi))
    assert (p_star, h_star) == (hi / 2, hi / 4)


@pytest.mark.parametrize("spec", sorted(GRID_ORACLE))
def test_myerson_matches_grid_oracle(spec):
    p_ref, h_ref = GRID_ORACLE[spec]
    p_star, h_star = myerson_price(parse_distribution(spec))
    assert p_star == pytest.approx(p_ref, abs=2e-6)
    assert h_star == pytest.approx(h_ref, abs=1e-10)


# each family at two parameter sets
FAMILY_PARAMS = [(Uniform, (0, 1), (0.2, 1.6)), (Beta, (4, 2), (2, 4)),
                 (TruncatedExponential, (1, 1), (2.5, 0.8))]
FAMILY_IDS = ["uniform", "beta", "texp"]


@pytest.mark.parametrize("family, params, _", FAMILY_PARAMS, ids=FAMILY_IDS)
def test_myerson_scans_once_per_instance(monkeypatch, family, params, _):
    dist = family(*params)
    first = myerson_price(dist)
    calls = []
    for method in ("sf", "cdf", "pdf"):
        monkeypatch.setattr(family, method,
                            lambda self, v, method=method: calls.append(method))
    assert myerson_price(dist) is first
    assert calls == []


@pytest.mark.parametrize("family, params, other", FAMILY_PARAMS, ids=FAMILY_IDS)
def test_myerson_is_stored_per_instance(family, params, other):
    dist, second = family(*params), family(*other)
    p_star, _ = myerson_price(dist)
    assert myerson_price(second) == myerson_price(family(*other))
    assert myerson_price(second)[0] != p_star


@pytest.mark.parametrize("dist", [Uniform(0, 1e-310), TruncatedExponential(1, 1e-310)],
                         ids=["uniform", "texp"])
def test_a_refused_support_is_refused_on_every_call(dist):
    # a Beta's support is always [0, 1], so only two families can be refused
    for _ in range(2):
        with pytest.raises(InvalidParameterError, match="too narrow"):
            myerson_price(dist)
    assert "_myerson" not in vars(dist)


@pytest.mark.parametrize("family, params, other", FAMILY_PARAMS, ids=FAMILY_IDS)
def test_the_revenue_slope_changes_sign_at_the_next_float(family, params, other):
    # the bisection ends at two adjacent floats: the slope sf(p) - p pdf(p) is
    # non-negative at p* and non-positive one float above it
    for dist in (family(*params), family(*other)):
        p_star, _ = myerson_price(dist)
        lo, hi = dist.support
        assert lo < p_star < hi
        slope = lambda p: dist.sf(p) - p * dist.pdf(p)
        assert slope(p_star) >= 0.0 >= slope(np.nextafter(p_star, np.inf))


@pytest.mark.parametrize("spec", ["beta:54,1e-283", "beta:2,1e-20"])
def test_myerson_keeps_the_even_prices_where_the_quantiles_round_to_an_end(spec):
    # the mass lies within a float of 1, so every quantile level above 0 rounds
    # to 1.0, where the revenue is 0; the even prices still reach 0.9999
    dist = parse_distribution(spec)
    assert np.all(dist.quantile(np.linspace(0.0, 1.0, 10_000)[1:]) == 1.0)
    assert myerson_price(dist) == (0.999899989999, 0.999899989999)


class NaNQuantileUniform(Uniform):
    """Uniform(0, 1) whose quantile is NaN at every inner level, as SciPy's
    betaincinv answers for some shapes (`beta:5,1e300`)."""

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        return np.where((q > 0.0) & (q < 1.0), np.nan, q)[()]


def test_myerson_passes_over_a_nan_quantile():
    assert myerson_price(NaNQuantileUniform(0, 1)) == (0.5, 0.25)


@pytest.mark.parametrize("family, params, _", FAMILY_PARAMS, ids=FAMILY_IDS)
def test_a_distribution_copies_and_pickles(family, params, _):
    dist = family(*params)
    twins = [copy.deepcopy(dist), pickle.loads(pickle.dumps(dist))]
    assert [vars(twin) for twin in twins] == [vars(dist)] * 2
    assert [myerson_price(twin) for twin in twins] == [myerson_price(dist)] * 2


@pytest.mark.parametrize("family, params, _", FAMILY_PARAMS, ids=FAMILY_IDS)
def test_solves_leave_a_distribution_as_it_was_built(monkeypatch, capsys, family, params, _):
    # the stored Myerson price is sound only while no solve changes the
    # parameters it was computed from
    dist = family(*params)
    built = dict(vars(dist))
    maximize_L(dist, make_geometric_discount(0.3, 2), make_geometric_discount(0.8, 2))
    monkeypatch.setattr(cli, "parse_distribution", lambda spec: dist)
    assert cli.main(["sweep", "--dist", dist.spec_string(), "--fix", "gs",
                     "--fixed-value", "0.8", "--horizon", "2", "--grid-count", "2"]) == 0
    assert capsys.readouterr().out.count("\n") == 3  # the header and two rows
    assert "_myerson" in vars(dist)
    assert {k: v for k, v in vars(dist).items() if k != "_myerson"} == built


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


# each family's cdf written with np.clip: the reference for its clamp
CLIPPED_CDF = {
    Uniform: lambda d, v: np.clip((v - d.lo) / (d.hi - d.lo), 0.0, 1.0),
    Beta: lambda d, v: special.betainc(d.alpha, d.beta, np.clip(v, 0.0, 1.0)),
    TruncatedExponential: lambda d, v: -np.expm1(-d.rate * np.clip(v, 0.0, d.bound)) / d._mass,
}


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_cdf_is_the_clipped_formula_byte_for_byte(dist):
    # the sign of a zero counts: texp's cdf at -0.0 and at 0.0 differ in it
    lo, hi = dist.support
    points = [-0.0, 0.0, lo, hi, lo - 1.0, hi + 1.0, np.nextafter(lo, -1.0), np.nextafter(hi, 2.0),
              5e-324, -5e-324, np.inf, -np.inf, np.nan, *np.linspace(lo, hi, 9)]
    reference = CLIPPED_CDF[type(dist)]
    for n in (1, 3, 7, len(points)):  # short and long arrays take different loops
        v = np.roll(np.array(points), n)[:n]
        assert dist.cdf(v).tobytes() == reference(dist, v).tobytes(), n
    for p in map(np.float64, points):
        assert np.float64(dist.cdf(p)).tobytes() == reference(dist, p).tobytes(), p


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
