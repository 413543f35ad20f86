"""Buyer valuation distributions and the static revenue machinery.

Three continuous families with bounded support are provided: uniform,
beta, and an exponential conditioned on an upper bound.  Each exposes a
CDF, a density and its derivative, the mean, and quantiles.
`static_revenue` is the one-shot revenue curve p * P[V >= p]; its leftmost
global maximizer is the price an optimal single-round seller posts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

from .core import _nonnegative
from .errors import InvalidParameterError

__all__ = [
    "ValuationDistribution",
    "Uniform",
    "Beta",
    "TruncatedExponential",
    "parse_distribution",
    "static_revenue",
    "myerson_price",
]

MYERSON_GRID_POINTS = 10_000  # scan that brackets the static revenue maximum


class ValuationDistribution:
    """Common interface: continuous distribution of the buyer's valuation.

    `cdf`, `pdf`, `dpdf`, `sf` and `quantile` return NumPy values: a scalar or 0-d
    input gives a `np.float64` (a `float` subclass), an array input an
    array of the same shape.
    """

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def mean(self) -> float:
        raise NotImplementedError

    def cdf(self, v):
        raise NotImplementedError

    def pdf(self, v):
        raise NotImplementedError

    def dpdf(self, v):
        """Derivative of the density (0 outside the support)."""
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def sf(self, v):
        """Survival function P[V > v] (= P[V >= v] by continuity)."""
        return 1.0 - self.cdf(v)

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_string()!r})"


class Uniform(ValuationDistribution):
    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        lo, hi = _nonnegative(lo, "uniform lo"), _nonnegative(hi, "uniform hi")
        if hi <= lo:
            raise InvalidParameterError("uniform needs 0 <= lo < hi, both finite")
        self.lo, self.hi = lo, hi

    @property
    def support(self):
        return (self.lo, self.hi)

    @property
    def mean(self):
        return self.lo + 0.5 * (self.hi - self.lo)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.clip((v - self.lo) / (self.hi - self.lo), 0.0, 1.0)[()]

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.where((v >= self.lo) & (v <= self.hi), 1.0 / (self.hi - self.lo), 0.0)[()]

    def dpdf(self, v):
        return np.zeros_like(np.asarray(v, dtype=float))[()]

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        return (self.lo + q * (self.hi - self.lo))[()]

    def spec_string(self):
        return f"uniform:{self.lo:g},{self.hi:g}"


class Beta(ValuationDistribution):
    def __init__(self, alpha: float, beta: float):
        alpha, beta = _nonnegative(alpha, "beta alpha"), _nonnegative(beta, "beta beta")
        if not (alpha > 0 and beta > 0 and math.isfinite(alpha + beta)):
            raise InvalidParameterError("beta needs finite alpha > 0 and beta > 0")
        self.alpha, self.beta = alpha, beta
        self._log_norm = special.betaln(alpha, beta)

    @property
    def support(self):
        return (0.0, 1.0)

    @property
    def mean(self):
        return self.alpha / (self.alpha + self.beta)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        return special.betainc(self.alpha, self.beta, np.clip(v, 0.0, 1.0))[()]

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        inside = (v > 0.0) & (v < 1.0)
        x = np.where(inside, v, 0.5)  # dummy abscissa where the density is zero
        with np.errstate(divide="ignore"):
            log_pdf = ((self.alpha - 1.0) * np.log(x)
                       + (self.beta - 1.0) * np.log1p(-x) - self._log_norm)
        return np.where(inside, np.exp(log_pdf), 0.0)[()]

    def dpdf(self, v):
        v = np.asarray(v, dtype=float)
        x = np.where((v > 0.0) & (v < 1.0), v, 0.5)  # pdf is zero where x is a dummy
        return (self.pdf(v) * ((self.alpha - 1.0) / x - (self.beta - 1.0) / (1.0 - x)))[()]

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        return special.betaincinv(self.alpha, self.beta, np.clip(q, 0.0, 1.0))[()]

    def spec_string(self):
        return f"beta:{self.alpha:g},{self.beta:g}"


class TruncatedExponential(ValuationDistribution):
    """Exponential(rate) conditioned on the interval [0, bound].

    Density rate * exp(-rate*x) / (1 - exp(-rate*bound)) on [0, bound]; this
    is the conditional density of an Exp(rate) variable given it lands in
    the interval, so it integrates to one.  Beware the superficially similar
    expression (1 - exp(-x)) / (1 - exp(-1)): at unit parameters that is this
    distribution's CDF, not a density (it does not integrate to one).
    """

    def __init__(self, rate: float = 1.0, bound: float = 1.0):
        rate, bound = _nonnegative(rate, "texp rate"), _nonnegative(bound, "texp bound")
        if not (rate > 0 and bound > 0 and math.isfinite(rate + bound)):
            raise InvalidParameterError("texp needs finite rate > 0 and bound > 0")
        self.rate, self.bound = rate, bound
        self._mass = -math.expm1(-rate * bound)  # 1 - exp(-rate*bound)

    @property
    def support(self):
        return (0.0, self.bound)

    @property
    def mean(self):
        lam, b = self.rate, self.bound
        x = lam * b
        if x < 1e-3:  # the closed form cancels here; the series drops b x^5 / 30240
            return b * (0.5 - x / 12.0 + x ** 3 / 720.0)
        return 1.0 / lam - b * math.exp(-lam * b) / self._mass

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        x = np.clip(v, 0.0, self.bound)
        return (-np.expm1(-self.rate * x) / self._mass)[()]

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        inside = (v >= 0.0) & (v <= self.bound)
        return np.where(inside, self.rate * np.exp(-self.rate * v) / self._mass, 0.0)[()]

    def dpdf(self, v):
        return (-self.rate * self.pdf(v))[()]

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf where the mass rounds to 1
            x = -np.log1p(-np.clip(q, 0.0, 1.0) * self._mass) / self.rate
        return np.minimum(x, self.bound)[()]

    def spec_string(self):
        return f"texp:{self.rate:g},{self.bound:g}"


def parse_distribution(spec: str) -> ValuationDistribution:
    """Parse a distribution spec string: 'uniform:0,1', 'beta:4,2', 'texp:1,1'."""
    try:
        name, _, argstr = spec.partition(":")
        args = [float(a) for a in argstr.split(",")] if argstr else []
    except (AttributeError, ValueError):
        raise InvalidParameterError(f"malformed distribution spec {spec!r}") from None
    families = {"uniform": Uniform, "beta": Beta, "texp": TruncatedExponential}
    if name not in families:
        raise InvalidParameterError(
            f"unknown distribution family {name!r}; expected one of {sorted(families)}")
    try:
        return families[name](*args)
    except TypeError:
        raise InvalidParameterError(
            f"wrong number of parameters in distribution spec {spec!r}") from None


def static_revenue(dist: ValuationDistribution, price: float) -> float:
    """One-shot expected revenue p * P[V >= p] of posting a single price."""
    price = _nonnegative(price, "price")
    return float(price * dist.sf(price))


def myerson_price(dist: ValuationDistribution) -> tuple[float, float]:
    """Leftmost global maximizer of the static revenue curve, and its value.

    A scan of `MYERSON_GRID_POINTS` prices over the support brackets the
    global maximum (no unimodality assumed).  Where the revenue slope
    sf(p) - p * pdf(p) falls from positive to negative across the bracket,
    its root, found to a few float spacings, replaces the scan point if it
    earns more.  Returns (p_star, h_star).
    """
    lo, hi = dist.support
    grid = np.linspace(lo, hi, MYERSON_GRID_POINTS)
    values = grid * dist.sf(grid)
    i = int(np.argmax(values))  # argmax takes the first = leftmost among ties
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, MYERSON_GRID_POINTS - 1)]
    slope = lambda p: float(dist.sf(p) - p * dist.pdf(p))
    p_star = grid[i]
    if slope(a) > 0.0 > slope(b):
        root = optimize.brentq(slope, a, b, xtol=4.0 * math.ulp(b))
        p_star = max(p_star, root, key=lambda p: p * dist.sf(p))  # ties keep the scan
    return float(p_star), static_revenue(dist, p_star)
