"""Command-line front door.

Three subcommands: ``compute`` evaluates one measure on one channel,
``sweep`` tabulates a parameter grid to CSV, and ``verify`` runs the
invariant battery against given or seeded random channels. Values print
in nats by default with twelve digits after the point; ``inf`` is both
accepted and emitted as a literal for the infinite orders.

``sweep`` builds the order pair of every grid cell (through
:func:`chanleak.alpha_tau_order` for a tau grid) before it solves any, so
an illegal entry anywhere in the grid exits 2 with nothing written.
``verify`` takes each property's check from :mod:`chanleak.properties`,
the module the tests call too, and reads every family value through one
per-run cache, so each distinct (channel, order) is solved once however
many properties use it.

``verify`` prints one PASS or FAIL line per property it checked, and a
SKIP line with the reason for one it could not check (the grid oracle
takes channels of at most 4 inputs); the closing count covers the checked
properties only.

``main`` builds its parser on its first call and reuses it for every later
call in the same process, so in-process callers pay for argparse once;
:func:`build_parser` returns a new parser on each call.

Exit codes: 0 success, 2 bad input (unparseable channel, illegal
parameters, unwritable output), 3 the value was computed and printed but
the simplex search or the capacity loop could not certify convergence at
the requested tolerance (a warning naming the certified gap goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import properties
from .core import (
    Channel,
    LeakageValue,
    OrderPair,
    SimplexPoint,
    compose,
    read_channel_csv,
    validate_channel,
)
from .errors import ChanleakError
from .measures import (
    MeasureResult,
    alpha_tau_leakage,
    alpha_tau_order,
    ldp,
    lrdp,
    lrdp_variant,
    maximal_alpha_beta_leakage,
    maximal_alpha_leakage,
    maximal_leakage,
)
from .optim import OptimizerConfig, OptimizerReport, maximize_information

__all__ = ["build_parser", "main"]

MEASURES = ("abl", "maxl", "max-alpha-l", "ldp", "lrdp", "lrdp-variant", "alpha-tau", "capacity")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chanleak", description="Leakage measures for finite channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one measure on one channel")
    comp.add_argument("--channel", required=True, help="channel CSV path")
    comp.add_argument("--measure", required=True, choices=MEASURES)
    comp.add_argument("--alpha", type=float, default=None, help="order alpha (number or 'inf')")
    comp.add_argument("--beta", type=float, default=None, help="order beta (number or 'inf')")
    comp.add_argument("--tau", type=float, default=None, help="trade-off parameter in [0, 1]")
    comp.add_argument("--unit", choices=("nats", "bits"), default="nats")
    comp.add_argument("--report", action="store_true", help="also print the maximizer and search diagnostics")
    comp.add_argument("--tolerance", type=float, default=None, help="search / capacity stopping tolerance")

    sweep = sub.add_parser("sweep", help="tabulate a parameter grid to CSV")
    sweep.add_argument("--channel", required=True)
    sweep.add_argument("--alpha", type=_float_list, required=True, metavar="LIST",
                       help="comma-separated alphas, 'inf' allowed")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=_float_list, default=None, metavar="LIST",
                       help="comma-separated betas, 'inf' allowed")
    group.add_argument("--tau", type=_float_list, default=None, metavar="LIST",
                       help="comma-separated taus in [0, 1]")
    sweep.add_argument("--out", default=None, help="output CSV path (stdout when omitted)")
    sweep.add_argument("--tolerance", type=float, default=None)

    verify = sub.add_parser("verify", help="run the invariant battery")
    verify.add_argument("--channel", default=None, help="channel CSV to test (otherwise random)")
    verify.add_argument("--random", type=int, default=5, metavar="N", help="number of random channels")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", type=float, default=1e-6,
                        help="pass threshold for search-based properties")
    verify.add_argument("--allow-zeros", action="store_true",
                        help="sparsify random rows to exercise the infinite-value paths")
    return parser


def _require(args: argparse.Namespace, parser_error, names: tuple[str, ...]) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser_error(f"--measure {args.measure} requires --{name}")


def _evaluate_measure(channel: Channel, args: argparse.Namespace,
                      error) -> tuple[LeakageValue, MeasureResult | None, OptimizerReport | None]:
    config = OptimizerConfig() if args.tolerance is None else OptimizerConfig(tolerance=args.tolerance)
    name = args.measure
    if name == "abl":
        _require(args, error, ("alpha", "beta"))
        result = maximal_alpha_beta_leakage(channel, OrderPair(args.alpha, args.beta), config)
        return result.value, result, result.report
    if name == "maxl":
        return maximal_leakage(channel), None, None
    if name == "max-alpha-l":
        _require(args, error, ("alpha",))
        result = maximal_alpha_leakage(channel, args.alpha, config)
        return result.value, result, result.report
    if name == "ldp":
        return ldp(channel), None, None
    if name == "lrdp":
        _require(args, error, ("alpha",))
        return lrdp(channel, args.alpha), None, None
    if name == "lrdp-variant":
        _require(args, error, ("beta",))
        return lrdp_variant(channel, args.beta), None, None
    if name == "alpha-tau":
        _require(args, error, ("alpha", "tau"))
        result = alpha_tau_leakage(channel, args.alpha, args.tau, config)
        return result.value, result, result.report
    if name == "capacity":
        report = maximize_information(channel.matrix, config)
        return LeakageValue(report.value), None, report
    raise AssertionError(name)


def cmd_compute(args: argparse.Namespace, error) -> int:
    channel = read_channel_csv(args.channel)
    value, result, report = _evaluate_measure(channel, args, error)
    print(f"{value.bits if args.unit == 'bits' else value.nats:.12f}")
    if args.report and result is not None:
        print(f"x_prime: {result.maximizing_x_prime}")
        if result.maximizing_distribution is not None:
            weights = " ".join(f"{w:.12f}" for w in result.maximizing_distribution.weights)
            print(f"p_tilde: {weights}")
    if args.report and report is not None:
        print(f"iterations: {report.iterations}")
        print(f"certified_gap: {report.certified_gap:.3e}")
        print(f"converged: {str(report.converged).lower()}")
    if report is not None and not report.converged:
        print(
            f"warning: search gap {report.certified_gap:.3e} exceeds the tolerance; "
            "the printed value may sit below the supremum",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    channel = read_channel_csv(args.channel)
    by_tau = args.tau is not None
    cells = [(a, s) for a in args.alpha for s in (args.tau if by_tau else args.beta)]
    orders = [alpha_tau_order(a, s) if by_tau else OrderPair(a, s) for a, s in cells]
    config = OptimizerConfig() if args.tolerance is None else OptimizerConfig(tolerance=args.tolerance)
    results = [maximal_alpha_beta_leakage(channel, order, config) for order in orders]

    lines = ["alpha,tau,value_nats" if by_tau else "alpha,beta,value_nats"]
    for (a, s), result in zip(cells, results):
        lines.append(f"{a:g},{s:g},{result.value.nats:.12f}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii", newline="") as handle:
            handle.write(text)

    stragglers = [(cell, r.report.certified_gap) for cell, r in zip(cells, results)
                  if r.report is not None and not r.report.converged]
    for (a, s), gap in stragglers:
        print(f"warning: grid point ({a:g}, {s:g}) did not certify convergence (gap {gap:.3e})", file=sys.stderr)
    return 3 if stragglers else 0


# verify battery fixtures; every draw below flows from the one seeded generator
_MONO_ALPHAS = (1.5, 2.0, 4.0)
_MONO_BETAS = (1.0, 1.2, 1.5, 2.0, 4.0, math.inf)
_DPI_ORDERS = (OrderPair(2.0, 1.5), OrderPair(4.0, 2.0), OrderPair(math.inf, 1.0), OrderPair(2.0, math.inf))
_ADDITIVITY_ORDERS = (OrderPair(2.0, 3.0), OrderPair(3.0, 1.5), OrderPair(math.inf, math.inf))
_GRID_ORDERS = (OrderPair(4.0, 2.0), OrderPair(2.0, 1.0))
_DEFINITIONAL_ORDERS = (OrderPair(2.0, 2.0), OrderPair(2.0, 1.0))
_TAU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
_TAU_ALPHAS = (1.5, 3.0)


def _random_channel(rng: np.random.Generator, n: int, m: int, allow_zeros: bool) -> Channel:
    rows = rng.dirichlet(np.ones(m), size=n)
    if allow_zeros:
        mask = rng.random((n, m)) < 0.25
        mask &= ~(mask.all(axis=1))[:, None]  # never kill an entire row
        rows = np.where(mask, 0.0, rows)
        rows = rows / rows.sum(axis=1, keepdims=True)
    return validate_channel(rows)


def _verify_battery(channels, rng, config, allow_zeros, search_tol):
    """Yield (name, worst_slack, pass_threshold) for every property.

    A property with nothing to check yields (name, None, reason) instead.

    Each slack comes from one check of :mod:`chanleak.properties`.
    Search-backed inequalities pass at ``search_tol``; closed-form
    identities at 1e-9; the two cross-oracle rows carry the scale of
    their own truncation error (grid resolution, alpha offset). Several
    properties read the same family value, so every value goes through
    one cache and each distinct (channel, order) is solved once.
    """

    @functools.cache
    def family(channel: Channel, order: OrderPair) -> float:
        return maximal_alpha_beta_leakage(channel, order, config).value.nats

    pairs = [OrderPair(a, b) for a in _MONO_ALPHAS for b in _MONO_BETAS]
    beta_runs = [[OrderPair(a, b) for b in _MONO_BETAS] for a in _MONO_ALPHAS]
    tau_runs = [[alpha_tau_order(a, t) for t in reversed(_TAU_GRID)] for a in _TAU_ALPHAS]  # it falls as tau grows
    alpha_runs = [[alpha_tau_order(a, t) for a in _TAU_ALPHAS] for t in _TAU_GRID]

    constant = validate_channel(np.tile(rng.dirichlet(np.ones(3)), (3, 1)))
    processed = []
    for channel in channels:
        post = _random_channel(rng, channel.n_outputs, 3, allow_zeros)
        pre = _random_channel(rng, 3, channel.n_inputs, allow_zeros)
        processed.append((channel, (compose(channel, post), compose(pre, channel))))
    halves = (_random_channel(rng, 2, 2, allow_zeros), _random_channel(rng, 2, 2, allow_zeros))
    points = [(channel, SimplexPoint.from_weights(rng.dirichlet(np.ones(channel.n_inputs)))) for channel in channels]
    small = _random_channel(rng, 2, 2, allow_zeros)
    reachable = [channel for channel in channels if channel.n_inputs <= 4]

    yield "non-negativity", properties.non_negativity(family, channels, pairs), search_tol
    yield "independence-zero", properties.independence_zero(family, [constant], pairs), search_tol
    yield "beta-monotonicity", properties.nondecreasing(family, channels, beta_runs), search_tol
    yield "tau-monotonicity", properties.nondecreasing(family, channels, tau_runs), search_tol
    yield "tau-alpha-monotonicity", properties.nondecreasing(family, channels, alpha_runs), search_tol
    yield "data-processing", properties.data_processing(family, processed, _DPI_ORDERS), search_tol
    yield "additivity", properties.additivity(family, [halves], _ADDITIVITY_ORDERS), search_tol
    yield "lrdp-bridge", properties.lrdp_bridge(family, channels, (1.5, 2.0, 4.0)), 1e-9
    yield "maxl-bridge", properties.maxl_bridge(family, channels), 1e-9
    yield "ldp-bridge", properties.ldp_bridge(family, channels, (1.5, 3.0)), 1e-9
    yield "saddle-form", properties.saddle_form(points), 1e-9
    if reachable:  # grid truncation at resolution 200 nears 3e-4 at low-mass optima
        yield "grid-oracle", properties.grid_oracle(family, reachable, _GRID_ORDERS, 200), 5e-4
    else:
        yield "grid-oracle", None, "every channel has more than 4 inputs"
    slack = properties.definitional_lower_bound(family, [small], _DEFINITIONAL_ORDERS, px_grid=15, shatter_cap=5)
    yield "definitional-lower-bound", slack, search_tol
    # the alpha offset itself contributes at this scale
    yield "capacity-limit", properties.capacity_limit(family, channels[0]), 5e-3


def cmd_verify(args: argparse.Namespace, error) -> int:
    if not (args.tolerance > 0.0 and math.isfinite(args.tolerance)):
        error(f"--tolerance must be a positive number, got {args.tolerance!r}")
    rng = np.random.default_rng(args.seed)
    if args.channel is not None:
        channels = [read_channel_csv(args.channel)]
    else:
        if args.random < 1:
            error(f"--random must be at least 1, got {args.random}")
        channels = [_random_channel(rng, 3, 3, args.allow_zeros) for _ in range(args.random)]

    gap = max(min(args.tolerance * 1e-2, 1e-8), 1e-12)
    config = OptimizerConfig(tolerance=gap)
    checked = failures = 0
    for name, slack, threshold in _verify_battery(channels, rng, config, args.allow_zeros, args.tolerance):
        if slack is None:
            print(f"{name:<26} SKIP  {threshold}")
            continue
        ok = slack <= threshold
        checked += 1
        failures += 0 if ok else 1
        print(f"{name:<26} {'PASS' if ok else 'FAIL'}  worst_slack={slack:.3e}")
    print(f"{checked - failures} of {checked} properties passed")
    return 0 if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser unchanged and every default is immutable,
    # so one parser serves every main() call of the process
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args, parser.error)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args, parser.error)
    except (ChanleakError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
