"""Command-line front end.

Subcommands: myerson | optimize | sweep | simulate | bigdeal | truncate.
Results are emitted as JSON (single computations) or CSV (sweeps and
simulations) with fixed formatting -- '.' decimal, 12 significant digits,
comma separators, LF line endings -- so identical commands with identical
seeds produce byte-identical output.

Exit codes: 0 success, 2 usage, 3 domain error, 4 I/O error.  Rate-order
warnings go to stderr and do not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import (DiscountSequence, PricingTree, canonical_nodes,
                   make_geometric_discount)
from .distributions import myerson_price, parse_distribution
from .errors import InvalidParameterError, RegularityError, ResourceLimitError
from .oracle import expected_strategic_revenue, strategic_revenue_curve
from .optimizer import maximize_L
from .schemes import big_deal, truncate

__all__ = ["main", "build_parser"]

_DOMAIN_ERRORS = (InvalidParameterError, RegularityError, ResourceLimitError)


class UsageError(Exception):
    """A flag or config entry failed validation before any computation started."""


class _Parser(argparse.ArgumentParser):
    """Reports every parse failure as a `UsageError` instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _node_header(node: str) -> str:
    return node if node else "e"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _emit_json(args, payload: dict) -> None:
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row))
    return "\n".join(lines) + "\n"


def _checked(convert, ok, what: str):
    """An argparse type: `convert` the flag text, then require `ok` of the value."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_rate = _checked(float, lambda x: 0.0 < x < 1.0, "a rate in (0, 1)")
_natural = _checked(int, lambda n: n >= 0, "a non-negative integer")
_positive = _checked(int, lambda n: n >= 1, "a positive integer")
_relative = _checked(float, lambda x: 0.0 <= x < 1.0, "a relative size in [0, 1)")
_tau_list = _checked(lambda text: sorted(int(t) for t in text.split(",")),
                     lambda taus: taus[0] >= 1 and len(set(taus)) == len(taus),
                     "comma-separated distinct positive integers")


def _dist(text: str):
    try:
        return parse_distribution(text)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _perturbed(discount: DiscountSequence, eps: float | None,
               seed: int) -> DiscountSequence:
    """Jitter weights multiplicatively to restore regularity, then renormalize."""
    if not eps:
        return discount
    rng = np.random.default_rng(seed ^ 0x5EED)
    w = discount.as_array() * (1.0 + eps * rng.uniform(-1.0, 1.0, len(discount)))
    return DiscountSequence(w / w[0])


def _read_json(path: str, what: str):
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise InvalidParameterError(f"{what}: not valid JSON ({exc})") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_myerson(args) -> int:
    p_star, h_star = myerson_price(args.dist)
    _emit_json(args, {"dist": args.dist.spec_string(), "p_star": p_star,
                      "h_star": h_star})
    return 0


def _baseline(args, gs: float, h_star: float) -> float:
    """Revenue of constant pricing at the one-shot optimal price, the
    denominator of every `ratio`; a zero or overflowing baseline is a domain
    error.  The seller total is the finite game's, or 1 / (1 - gs) for the
    infinite one."""
    total = (1.0 / (1.0 - gs) if args.horizon is None
             else make_geometric_discount(gs, args.horizon).total)
    baseline = total * h_star
    if baseline == 0.0 or not np.isfinite(baseline):
        raise InvalidParameterError(
            f"the constant-pricing baseline revenue is {baseline}, so no ratio is defined")
    return baseline


def _solve(args, gb: float, gs: float, depth: int, warm=None):
    """`maximize_L` on the finite game of `depth` rounds, or on the infinite
    game's truncation at `depth` when no --horizon is given, warm-started at
    `warm` if given; returns the result and the truncated game (or None)."""
    if args.horizon is None:
        game = truncate(gb, gs, depth)
        buyer, seller = game.buyer, game.seller
    else:
        game = None
        buyer = make_geometric_discount(gb, depth)
        seller = make_geometric_discount(gs, depth)
    result = maximize_L(args.dist, _perturbed(buyer, args.perturb, args.seed),
                        seller, starts=args.starts, seed=args.seed, warm=warm)
    return result, game


def cmd_optimize(args) -> int:
    """One game: the finite one (--horizon) or the tau-step infinite one (--tau)."""
    baseline = _baseline(args, args.gs, myerson_price(args.dist)[1])
    depth = args.tau if args.horizon is None else args.horizon
    result, game = _solve(args, args.gb, args.gs, depth)
    if game is None:
        mode = {"horizon": depth, "v_star": [float(x) for x in result.v_star],
                "iterations": result.iterations, "starts": result.starts}
    else:
        mode = {"tau": depth, "opt_lower": result.value,
                "opt_upper": result.value + game.tail_bound(args.dist)}
    _emit_json(args, {
        "dist": args.dist.spec_string(),
        "gs": args.gs,
        "gb": args.gb,
        "value": result.value,
        "baseline": baseline,
        "ratio": result.value / baseline,
        "kkt_residual": result.kkt_residual,
        "converged": result.converged,
        "seed": args.seed,
        "tree": result.tree.to_json_dict(),
        **mode,
    })
    return 0


def _sweep_grid(args) -> np.ndarray:
    grid = args.grid_start + args.grid_step * np.arange(args.grid_count)
    if not np.all((grid > 0.0) & (grid < 1.0)):  # NaN fails too
        raise UsageError("every point of --grid-start + i * --grid-step, "
                         "i < --grid-count, must lie in (0, 1)")
    return grid


def cmd_sweep(args) -> int:
    dist, fixed_value, horizon = args.dist, args.fixed_value, args.horizon
    varying = "gb" if args.fix == "gs" else "gs"
    grid = _sweep_grid(args)
    _, h_star = myerson_price(dist)

    # the finite game solves one horizon; the infinite game one truncation per tau
    depths = [horizon] if horizon is not None else args.tau_list
    suffixes = [""] if horizon is not None else [f"_tau{t}" for t in depths]
    nodes = canonical_nodes(depths[-1])
    header = ([varying] + [_node_header(n) for n in nodes]
              + [f"value{x}" for x in suffixes] + [f"ratio{x}" for x in suffixes])
    rows = []
    optima = {}  # depth -> v_star at the previous grid point, the next point's warm start
    for point in grid:
        gs = fixed_value if args.fix == "gs" else float(point)
        gb = float(point) if args.fix == "gs" else fixed_value
        try:
            baseline = _baseline(args, gs, h_star)
            values = []
            for depth in depths:
                res, _ = _solve(args, gb, gs, depth, optima.get(depth))
                optima[depth] = res.v_star
                values.append(res.value)
        except _DOMAIN_ERRORS as exc:  # name the grid point that failed
            raise type(exc)(f"at {varying} = {float(point)}: {exc}") from exc
        # prices come from the last solve, the deepest one
        rows.append([point] + [res.tree.price(n) for n in nodes] + values
                    + [value / baseline for value in values])

    _write_text(args.out, _csv(rows, header))
    return 0


def cmd_simulate(args) -> int:
    tree = PricingTree.from_json_dict(_read_json(args.tree, "tree JSON"))
    buyer = make_geometric_discount(args.gb, tree.horizon)
    seller = make_geometric_discount(args.gs, tree.horizon)
    lo, hi = args.dist.support
    grid = np.linspace(lo, hi, args.grid_size)
    curve = strategic_revenue_curve(tree, buyer, seller, grid)
    revenue = expected_strategic_revenue(tree, args.dist, buyer, seller)
    rows = zip(curve.valuations, curve.strategies, curve.surplus, curve.revenue,
               curve.quantity)
    _write_text(args.out, _csv(rows, ["v", "strategy", "S", "R", "Q"]))
    sys.stdout.write(json.dumps({"expected_revenue": revenue}, sort_keys=True) + "\n")
    return 0


def cmd_bigdeal(args) -> int:
    game = truncate(args.gb, args.gs, args.tau)
    tree, revenue = big_deal(args.dist, game.buyer, game.seller)
    _emit_json(args, {
        "dist": args.dist.spec_string(),
        "gs": args.gs,
        "gb": args.gb,
        "tau": tree.horizon,
        "first_price": tree.price(""),
        "penalty_price": tree.price("0"),
        "expected_revenue": revenue,
        "tree": tree.to_json_dict(),
    })
    return 0


def cmd_truncate(args) -> int:
    game = truncate(args.gb, args.gs, args.tau)
    _emit_json(args, {
        "tau": args.tau,
        "buyer_weights": list(game.buyer.weights),
        "seller_weights": list(game.seller.weights),
        "seller_tail": game.seller_tail,
    })
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


_FLAGS = {
    "dist": dict(type=_dist, help="distribution spec: uniform:LO,HI | beta:A,B | "
                                  "texp:RATE,BOUND"),
    "gs": dict(type=_rate, help="seller geometric discount rate in (0,1)"),
    "gb": dict(type=_rate, help="buyer geometric discount rate in (0,1)"),
    "horizon": dict(type=_positive, help="number of rounds T of the finite game"),
    "tau": dict(type=_positive, help="truncation depth for the infinite game"),
    "tau_list": dict(type=_tau_list,
                     help="comma-separated taus: sweep the infinite game instead"),
    "seed": dict(type=_natural, default=0, help="RNG seed for optimizer starts"),
    "starts": dict(type=_positive, help="number of optimizer starts"),
    "out": dict(help="output path (default: stdout)"),
    "config": dict(help="JSON object of flag values; explicit flags win"),
    "perturb": dict(type=_relative, nargs="?", const=1e-9,
                    help="jitter buyer weights by this relative size to "
                         "restore regularity (default 1e-9 when bare)"),
}


def _add(parser, *names, required: bool = False) -> None:
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), required=required,
                            **_FLAGS[name])


def _command(sub, name: str, func, help: str, *required):
    """Subcommand `name` with the shared flags `required`, --out and --config."""
    parser = sub.add_parser(name, help=help)
    _add(parser, *required, required=True)
    _add(parser, "out", "config")
    parser.set_defaults(func=func)
    return parser


def _add_solver(parser, *depth_flags) -> None:
    """The game-depth flags (exactly one of them) and the optimizer flags."""
    _add(parser.add_mutually_exclusive_group(required=True), *depth_flags)
    _add(parser, "seed", "starts", "perturb")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="postedprice",
        description="Revenue-optimal pricing for repeated posted-price auctions")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "myerson", cmd_myerson, "one-shot optimal price and revenue", "dist")

    p = _command(sub, "optimize", cmd_optimize, "optimal pricing tree for one game",
                 "dist", "gs", "gb")
    _add_solver(p, "horizon", "tau")

    p = _command(sub, "sweep", cmd_sweep,
                 "optimal pricings over a grid of rates, as CSV", "dist")
    _add_solver(p, "horizon", "tau_list")
    p.add_argument("--fix", choices=("gs", "gb"), required=True,
                   help="which rate stays fixed while the other sweeps")
    p.add_argument("--fixed-value", type=_rate, required=True)
    p.add_argument("--grid-start", type=float, default=0.01)
    p.add_argument("--grid-step", type=float, default=0.005)
    p.add_argument("--grid-count", type=_natural, default=149)

    p = _command(sub, "simulate", cmd_simulate,
                 "best responses of a tree from JSON, as CSV", "dist", "gs", "gb")
    p.add_argument("--tree", required=True, help="path of the tree JSON file")
    p.add_argument("--grid-size", type=_positive, default=201)

    _command(sub, "bigdeal", cmd_bigdeal, "pay-up-front pricing and its revenue",
             "dist", "gs", "gb", "tau")
    _command(sub, "truncate", cmd_truncate, "tail-aggregated finite discounts",
             "gs", "gb", "tau")
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """argv with the --config file's entries as `--key=value` flags.

    They go right after the subcommand, before the explicit flags, so that
    an explicit flag wins; a null entry leaves its flag at the default.
    """
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    config = _read_json(path, "config file")
    if not isinstance(config, dict):
        raise InvalidParameterError("config file must hold a JSON object")
    flags = []
    for key, value in config.items():
        if isinstance(value, (bool, list, dict)):
            raise UsageError(f"config entry {key!r}: expected a number or a string")
        if value is not None:
            flags.append(f"--{key.replace('_', '-')}={value}")
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
