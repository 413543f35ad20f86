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
from .errors import (InfeasiblePointError, InvalidParameterError,
                     RegularityError, ResourceLimitError)
from .oracle import expected_strategic_revenue, strategic_revenue_curve
from .optimizer import maximize_L
from .schemes import big_deal, tau_step_optimal, truncate

__all__ = ["main", "build_parser"]

_DOMAIN_ERRORS = (InvalidParameterError, RegularityError, ResourceLimitError,
                  InfeasiblePointError)


class UsageError(Exception):
    """A flag value failed validation before any computation started."""


def _usage(fn, *args, **kwargs):
    """Run an input-validation step, converting failures to usage errors."""
    try:
        return fn(*args, **kwargs)
    except InvalidParameterError as exc:
        raise UsageError(str(exc)) from None


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
    _write_text(getattr(args, "out", None),
                json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row))
    return "\n".join(lines) + "\n"


def _rate(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise InvalidParameterError(f"{name} must lie in (0, 1), got {value:g}")
    return value


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


def _optimizer_opts(args) -> dict:
    opts = {}
    for key in ("starts", "max_iter", "tol", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            opts[key] = value
    return opts


# ---------------------------------------------------------------------------
# Subcommands


def cmd_myerson(args) -> int:
    dist = _usage(parse_distribution, args.dist)
    p_star, h_star = myerson_price(dist)
    _emit_json(args, {"dist": dist.spec_string(), "p_star": p_star, "h_star": h_star})
    return 0


def cmd_optimize(args) -> int:
    dist = _usage(parse_distribution, args.dist)
    gs = _usage(_rate, args.gs, "--gs")
    gb = _usage(_rate, args.gb, "--gb")
    horizon = int(args.horizon)
    buyer = _perturbed(make_geometric_discount(gb, horizon), args.perturb, args.seed)
    seller = make_geometric_discount(gs, horizon)
    result = maximize_L(dist, buyer, seller, horizon, **_optimizer_opts(args))
    _, h_star = myerson_price(dist)
    baseline = seller.total * h_star
    _emit_json(args, {
        "dist": dist.spec_string(),
        "gs": gs,
        "gb": gb,
        "horizon": horizon,
        "v_star": [float(x) for x in result.v_star],
        "value": result.value,
        "baseline": baseline,
        "ratio": result.value / baseline,
        "kkt_residual": result.kkt_residual,
        "iterations": result.iterations,
        "starts": result.starts,
        "converged": result.converged,
        "seed": args.seed,
        "tree": result.tree.to_json_dict(),
    })
    return 0


def _sweep_grid(args) -> np.ndarray:
    count = int(args.grid_count)
    if count < 0:
        raise UsageError("--grid-count must be non-negative")
    grid = args.grid_start + args.grid_step * np.arange(count)
    if count and (grid.min() <= 0.0 or grid.max() >= 1.0):
        raise UsageError("all grid points must lie in (0, 1)")
    return grid


def _tau_list(text) -> list[int]:
    try:
        taus = sorted(int(t) for t in str(text).split(","))
    except ValueError:  # an entry that is not an integer, or an empty one
        taus = []
    if not taus or any(t < 1 for t in taus):
        raise UsageError("--tau-list must name positive integers")
    return taus


def cmd_sweep(args) -> int:
    dist = _usage(parse_distribution, args.dist)
    fixed_value = _usage(_rate, args.fixed_value, "--fixed-value")
    varying = "gb" if args.fix == "gs" else "gs"
    grid = _sweep_grid(args)
    opts = _optimizer_opts(args)
    _, h_star = myerson_price(dist)

    # the finite game solves one horizon; the infinite game one truncation per tau
    horizon = None if args.tau_list is not None else int(args.horizon)
    depths = [horizon] if horizon is not None else _tau_list(args.tau_list)
    suffixes = [""] if horizon is not None else [f"_tau{t}" for t in depths]
    nodes = canonical_nodes(depths[-1])
    header = ([varying] + [_node_header(n) for n in nodes]
              + [f"value{x}" for x in suffixes] + [f"ratio{x}" for x in suffixes])
    rows = []
    for point in grid:
        gs = fixed_value if args.fix == "gs" else float(point)
        gb = float(point) if args.fix == "gs" else fixed_value
        seller = make_geometric_discount(gs, horizon)
        buyer = make_geometric_discount(gb, horizon)
        baseline = seller.total * h_star
        values = []
        for depth in depths:
            game_buyer, game_seller = buyer, seller
            if horizon is None:
                game = truncate(buyer, seller, depth)
                game_buyer, game_seller = game.buyer, game.seller
            res = maximize_L(dist, _perturbed(game_buyer, args.perturb, args.seed),
                             game_seller, depth, **opts)
            values.append(res.value)
        # prices come from the last solve, the deepest one
        rows.append([point] + [res.tree.price(n) for n in nodes] + values
                    + [value / baseline for value in values])

    _write_text(args.out, _csv(rows, header))
    return 0


def cmd_simulate(args) -> int:
    size = int(args.grid_size)
    if size < 1:
        raise UsageError("--grid-size must be at least 1")
    tree = PricingTree.from_json_dict(_read_json(args.tree, "tree JSON"))
    dist = _usage(parse_distribution, args.dist)
    gs = _usage(_rate, args.gs, "--gs")
    gb = _usage(_rate, args.gb, "--gb")
    buyer = make_geometric_discount(gb, tree.horizon)
    seller = make_geometric_discount(gs, tree.horizon)
    lo, hi = dist.support
    grid = np.linspace(lo, hi, size)
    curve = strategic_revenue_curve(tree, buyer, seller, grid)
    revenue = expected_strategic_revenue(tree, dist, buyer, seller)
    rows = [[v, s, surplus, rev, qty]
            for (v, surplus, rev, qty), s in zip(curve, curve.strategies)]
    _write_text(args.out, _csv(rows, ["v", "strategy", "S", "R", "Q"]))
    sys.stdout.write(json.dumps({"expected_revenue": revenue}, sort_keys=True) + "\n")
    return 0


def cmd_bigdeal(args) -> int:
    dist = _usage(parse_distribution, args.dist)
    gs = _usage(_rate, args.gs, "--gs")
    gb = _usage(_rate, args.gb, "--gb")
    tree, revenue = big_deal(dist, make_geometric_discount(gb),
                             make_geometric_discount(gs), tau=args.tau)
    _emit_json(args, {
        "dist": dist.spec_string(),
        "gs": gs,
        "gb": gb,
        "tau": tree.horizon,
        "first_price": tree.price(""),
        "penalty_price": tree.price("0"),
        "expected_revenue": revenue,
        "tree": tree.to_json_dict(),
    })
    return 0


def cmd_truncate(args) -> int:
    gs = _usage(_rate, args.gs, "--gs")
    gb = _usage(_rate, args.gb, "--gb")
    game = truncate(make_geometric_discount(gb), make_geometric_discount(gs),
                    int(args.tau))
    _emit_json(args, {
        "tau": game.tau,
        "buyer_weights": list(game.buyer.weights),
        "seller_weights": list(game.seller.weights),
        "seller_tail": game.seller_tail,
    })
    return 0


def cmd_tau_optimize(args) -> int:
    """The optimize command in infinite-game (tau-step) mode."""
    dist = _usage(parse_distribution, args.dist)
    gs = _usage(_rate, args.gs, "--gs")
    gb = _usage(_rate, args.gb, "--gb")
    tau = int(args.tau)
    result = tau_step_optimal(dist, make_geometric_discount(gb),
                              make_geometric_discount(gs), tau,
                              **_optimizer_opts(args))
    _, h_star = myerson_price(dist)
    baseline = make_geometric_discount(gs).total * h_star
    _emit_json(args, {
        "dist": dist.spec_string(),
        "gs": gs,
        "gb": gb,
        "tau": tau,
        "value": result.value,
        "opt_lower": result.opt_lower,
        "opt_upper": result.opt_upper,
        "baseline": baseline,
        "ratio": result.value / baseline,
        "kkt_residual": result.optimization.kkt_residual,
        "converged": result.optimization.converged,
        "seed": args.seed,
        "tree": result.tree.to_json_dict(),
    })
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


_DEFAULTS = {
    "seed": 0,
    "perturb": None,
    "grid_start": 0.01,
    "grid_step": 0.005,
    "grid_count": 149,
    "grid_size": 201,
}


def _add_common(parser: argparse.ArgumentParser, *names) -> None:
    opts = {
        "dist": dict(help="distribution spec: uniform:LO,HI | beta:A,B | texp:RATE,BOUND"),
        "gs": dict(type=float, help="seller geometric discount rate in (0,1)"),
        "gb": dict(type=float, help="buyer geometric discount rate in (0,1)"),
        "horizon": dict(type=int, help="number of rounds T of the finite game"),
        "tau": dict(type=int, help="truncation depth for the infinite game"),
        "seed": dict(type=int, help="RNG seed for optimizer starts"),
        "starts": dict(type=int, help="number of optimizer starts"),
        "max_iter": dict(type=int, help="optimizer iteration cap"),
        "tol": dict(type=float, help="optimizer projected-gradient tolerance"),
        "out": dict(help="output path (default: stdout)"),
        "config": dict(help="JSON file of defaults; explicit flags win"),
        "perturb": dict(type=float, nargs="?", const=1e-9,
                        help="jitter buyer weights by this relative size to "
                             "restore regularity (default 1e-9 when bare)"),
    }
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, default=None, **opts[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postedprice",
        description="Revenue-optimal pricing for repeated posted-price auctions")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("myerson", help="one-shot optimal price and revenue")
    _add_common(p, "dist", "out", "config")
    p.set_defaults(func=cmd_myerson, required_args=("dist",))

    p = sub.add_parser("optimize", help="optimal pricing tree for one game")
    _add_common(p, "dist", "gs", "gb", "horizon", "tau", "seed", "starts",
                "max_iter", "tol", "out", "config", "perturb")
    p.set_defaults(func=None, required_args=("dist", "gs", "gb"))

    p = sub.add_parser("sweep", help="optimal pricings over a grid of rates, as CSV")
    _add_common(p, "dist", "horizon", "seed", "starts", "max_iter", "tol",
                "out", "config", "perturb")
    p.add_argument("--fix", choices=("gs", "gb"), default=None,
                   help="which rate stays fixed while the other sweeps")
    p.add_argument("--fixed-value", type=float, default=None)
    p.add_argument("--grid-start", type=float, default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--grid-count", type=int, default=None)
    p.add_argument("--tau-list", default=None,
                   help="comma-separated taus: sweep the infinite game instead")
    p.set_defaults(func=cmd_sweep, required_args=("dist", "fix", "fixed_value"))

    p = sub.add_parser("simulate", help="best responses of a tree from JSON, as CSV")
    _add_common(p, "dist", "gs", "gb", "out", "config")
    p.add_argument("--tree", default=None, help="path of the tree JSON file")
    p.add_argument("--grid-size", type=int, default=None)
    p.set_defaults(func=cmd_simulate, required_args=("tree", "dist", "gs", "gb"))

    p = sub.add_parser("bigdeal", help="pay-up-front pricing and its revenue")
    _add_common(p, "dist", "gs", "gb", "tau", "out", "config")
    p.set_defaults(func=cmd_bigdeal, required_args=("dist", "gs", "gb", "tau"))

    p = sub.add_parser("truncate", help="tail-aggregated finite discounts")
    _add_common(p, "gs", "gb", "tau", "out", "config")
    p.set_defaults(func=cmd_truncate, required_args=("gs", "gb", "tau"))

    return parser


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset options from --config JSON, then from hard defaults."""
    config = {}
    if getattr(args, "config", None):
        loaded = _read_json(args.config, "config file")
        if not isinstance(loaded, dict):
            raise InvalidParameterError("config file must hold a JSON object")
        config = {str(k).replace("-", "_"): v for k, v in loaded.items()}
    for key, value in vars(args).copy().items():
        if value is None:
            if key in config:
                setattr(args, key, config[key])
            elif key in _DEFAULTS:
                setattr(args, key, _DEFAULTS[key])


def _check_required(args: argparse.Namespace, parser: argparse.ArgumentParser) -> bool:
    missing = [name for name in getattr(args, "required_args", ())
               if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join("--" + m.replace("_", "-") for m in missing)
        print(f"usage error: missing required option(s): {flags}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _merge_config(args)
        if not _check_required(args, parser):
            return 2
        if args.command == "optimize":
            # finite-horizon and tau-step modes share the subcommand
            if getattr(args, "horizon", None) is None and args.tau is not None:
                return cmd_tau_optimize(args)
            if getattr(args, "horizon", None) is None:
                print("usage error: optimize needs --horizon or --tau",
                      file=sys.stderr)
                return 2
            return cmd_optimize(args)
        if args.command == "sweep":
            if args.tau_list is None and args.horizon is None:
                print("usage error: sweep needs --horizon or --tau-list",
                      file=sys.stderr)
                return 2
        return args.func(args)
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
