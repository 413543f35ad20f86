"""The start corpus: the default start budget against the old one on seeded instances.

Deselected by default; run with `pytest -m corpus`.  The default budget is
`optimizer._start_count(None, k)` = max(16, k) starts; before, it was
max(16, 4k).  Every start list is one seeded stream, so the default list is
the first max(16, k) points of the old one (`test_optimizer.py` checks this
byte for byte), and `starts=max(16, 4 * k)` reruns the old search exactly.
On each instance the default solve must reach the old solve's value within
1e-12 relative, and certify wherever the old one certified.  A uniform
instance with k <= 7 must also reach the exact `uniform_face_optimum`.

The instances are drawn with the standard library's `random` from one seed:
for every family, depth (T = 2..6 finite games and tau = 2..6 truncations)
and seller rate gs in {0.6, 0.8, 0.95}, one buyer rate gb in (0, gs).
`KNOWN_MISSES` adds the `texp:50,1` instances, mostly at gs = 0.95, where
a single start was seen to end uncertified and short.  One such miss is
left out: at tau 6, gs 0.95, gb 0.389 the old budget takes about 45 s.
"""

import random

import pytest

from postedprice import build_system, maximize_L, parse_distribution, uniform_face_optimum
from postedprice.optimizer import _start_count
from test_optimizer import game

pytestmark = pytest.mark.corpus

FAMILIES = ["uniform:0,1", "beta:4,2", "beta:0.5,0.5", "texp:50,1", "uniform:2,3",
            "beta:2,5", "beta:0.3,3", "beta:8,8", "texp:5,1"]
SELLER_RATES = (0.6, 0.8, 0.95)


def corpus() -> list:
    """The seeded instances (spec, depth, gs, gb), gb drawn in [0.02 gs, 0.98 gs]
    and rounded to three decimals.  A gb of 0.5 is drawn again: `truncate`
    then gives the buyer two equal weights, a game `build_system` refuses."""
    rng = random.Random(0)
    instances = []
    for spec in FAMILIES:
        for kind in ("T", "tau"):
            for n in range(2, 7):
                for gs in SELLER_RATES:
                    gb = 0.5
                    while gb == 0.5:
                        gb = round(gs * rng.uniform(0.02, 0.98), 3)
                    instances.append((spec, f"{kind}{n}", gs, gb))
    return instances


# (spec, depth, gs, gb) where `starts=1` ends uncertified and short of the old
# budget's value, found by earlier seeded searches; the seeded corpus finds
# four more (three on `texp:50,1`, and `beta:4,2` at tau 6, gs .95, gb .518,
# where one start certifies 1.0% short)
KNOWN_MISSES = [
    ("texp:50,1", "tau4", 0.95, 0.538),  # 4.2% short (also a tier-1 case)
    ("texp:50,1", "tau5", 0.95, 0.384),  # 1.1% short
    ("texp:50,1", "tau6", 0.8, 0.231),  # 2.0% short
]

INSTANCES = corpus()
INSTANCES += [x for x in KNOWN_MISSES if x not in INSTANCES]


@pytest.mark.parametrize("spec, depth, gs, gb", INSTANCES,
                         ids=[f"{s}-{d}-gs{gs}-gb{gb}" for s, d, gs, gb in INSTANCES])
def test_the_default_budget_reaches_the_old_budget_value(spec, depth, gs, gb):
    dist, (buyer, seller) = parse_distribution(spec), game(depth, gb, gs)
    k = 2 ** len(buyer) - 1
    result = maximize_L(dist, buyer, seller)
    assert result.starts == _start_count(None, k)
    old = maximize_L(dist, buyer, seller, starts=max(16, 4 * k))
    assert result.value >= old.value - 1e-12 * abs(old.value)
    assert result.converged or not old.converged
    if spec.startswith("uniform") and k <= 7:
        _, exact = uniform_face_optimum(build_system(buyer, seller).Xi, dist)
        assert result.value == pytest.approx(exact, rel=1e-12)
