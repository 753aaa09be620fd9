"""The three benchmark workloads: inputs, operations and output checks.

A workload runs in passes. Pass ``k`` of seed ``s`` draws fresh inputs
from ``numpy.random.default_rng([s, k, salt])``, so a seed fixes every
pass's inputs. Each pass runs the same fixed list of operations; one
operation is one library measure call or one ``chanleak.cli.main``
invocation. ``inputs`` is the benchmark's own generation (numpy arrays, CSV
files); ``build`` turns those into what the program takes, through the
library; ``ops`` lists the timed calls with the check for each output.

Checks run after the timed pass. A check marks its operation failed when
the call raised, exited with an unexpected code, printed a FAIL line, or
returned a value outside the stated tolerance of its reference bracket
from :mod:`reference`; ``+inf`` must match exactly. It marks the
operation uncertified when the solver's certificate missed the requested
tolerance: ``report.converged`` is false, or the CLI exited with code 3.
A search result may sit below the bracket by the gap its own certificate
states (``report.certified_gap``, or the gap in the CLI's warning), so an
uncertified value counts as failed only when that certificate is false.
"""

from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from reference import Reference

# Stated tolerances of the checks, relative to max(1, |reference|).
CLOSED_TOL = 1e-9     # closed forms and capacity: against an exact value or a tight bracket
CONCAVE_TOL = 1e-6    # beta < alpha: the search may stop above its requested 1e-8 certificate
# The grid oracle is a lower bound: the value may not sit below it. Its
# truncation error has no bound that holds for every channel (a maximizer
# with a weight of 0.0016 left 5.5e-4 at resolution 200 on a 3x3 channel),
# so the value's upper side is checked against the reference bracket alone.
GRID_RESOLUTION = {3: 200, 4: 60}

SEARCH_TOLERANCE = 1e-8  # the certificate every beta < alpha call requests
# closed-large asks shannon_capacity for this gap; at the library default
# of 1e-9 its time on 100x100 Dirichlet channels ranges 0.2-10 s by seed
CAPACITY_TOLERANCE = 1e-6

ANCHORS_FILE = Path(__file__).with_name("references.json")


@dataclass
class Outcome:
    failed: bool
    uncertified: bool = False
    detail: str = ""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _rng(seed: int, pass_index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index, salt])


def _dirichlet(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    return rng.dirichlet(np.ones(m), size=n)


def _value_outcome(value: float, bracket, tolerance: float, gap: float = 0.0) -> Outcome:
    """``gap``: how far below the supremum the program's certificate says the value may sit."""
    if reference.within(value, bracket, tolerance, below=gap):
        return Outcome(False)
    return Outcome(True, detail=f"value {value!r} (certified gap {gap:.3g}) outside reference bracket {bracket}")


def _grid_outcome(lib, channel, order, value: float, gap: float) -> Outcome | None:
    """The grid-oracle bound for n <= 4, or None when it holds or does not apply."""
    n = channel.n_inputs
    if n not in GRID_RESOLUTION:
        return None
    grid = lib.oracle.grid_search_inner(channel, order, GRID_RESOLUTION[n]).nats
    if math.isinf(grid) or math.isinf(value):
        ok = grid == value
    else:
        ok = grid <= value + gap + CLOSED_TOL * max(1.0, abs(value))
    return None if ok else Outcome(True, detail=f"value {value!r} against grid oracle bound {grid!r}")


# ---------------------------------------------------------------- concave-mid

# (n, m) of each channel and the beta < alpha calls made on it. Every
# channel gets the three beta = 1 calls; the heavier orders are spread over
# the shapes so one pass stays a few seconds long.
CONCAVE_PLAN = (
    ((4, 4), (("abl", 4.0, 2.0), ("alpha-tau", 3.0, 0.25))),
    ((5, 7), (("abl", 3.0, 1.5),)),
    ((6, 6), (("abl", 4.0, 2.0),)),
    ((7, 5), (("alpha-tau", 2.0, 0.75),)),
    ((8, 8), (("abl", 4.0, 2.0),)),
    ((9, 12), (("abl", 2.0, 1.5),)),
    ((10, 10), (("abl", 3.0, 1.5),)),
    ((12, 8), (("alpha-tau", 2.0, 0.75),)),
    ((12, 12), (("abl", 2.0, 1.5),)),
)
CHEAP_ORDERS = (("abl", 2.0, 1.0), ("abl", 1.5, 1.0), ("alpha-tau", 3.0, 1.0))


class ConcaveMid:
    name = "concave-mid"
    salt = 1
    tail_level = 0.93

    def inputs(self, seed: int, pass_index: int, workdir: Path) -> dict:
        rng = _rng(seed, pass_index, self.salt)
        return {shape: _dirichlet(rng, *shape) for shape, _ in CONCAVE_PLAN}

    def build(self, lib, inputs: dict) -> dict:
        return {shape: lib.validate_channel(matrix) for shape, matrix in inputs.items()}

    def ops(self, lib, built: dict) -> list[Op]:
        config = lib.OptimizerConfig(tolerance=SEARCH_TOLERANCE)
        ops = []
        for shape, calls in CONCAVE_PLAN:
            channel = built[shape]
            ref = Reference(channel.matrix)
            for spec in CHEAP_ORDERS + calls:
                ops.append(_library_measure_op(lib, channel, ref, spec, config, f"{shape[0]}x{shape[1]}"))
        return ops


def _library_measure_op(lib, channel, ref: Reference, spec, config, shape_label: str) -> Op:
    kind, alpha, second = spec
    if kind == "abl":
        order = lib.OrderPair(alpha, second)
        call = lambda: lib.maximal_alpha_beta_leakage(channel, order, config)  # noqa: E731
        bracket = lambda: ref.measure("abl", alpha=alpha, beta=second)  # noqa: E731
    else:
        order = lib.OrderPair(alpha, reference.tau_beta(alpha, second))
        call = lambda: lib.alpha_tau_leakage(channel, alpha, second, config)  # noqa: E731
        bracket = lambda: ref.measure("alpha-tau", alpha=alpha, tau=second)  # noqa: E731

    def check(result) -> Outcome:
        value = result.value.nats
        gap = result.report.certified_gap if result.report is not None else 0.0
        outcome = _value_outcome(value, bracket(), CONCAVE_TOL, gap)
        if not outcome.failed:
            outcome = _grid_outcome(lib, channel, order, value, gap) or outcome
        outcome.uncertified = result.report is not None and not result.report.converged
        return outcome

    return Op(f"{kind}({alpha:g},{second:g}) {shape_label}", call, check)


# ---------------------------------------------------------------- closed-large

def _zero_columns(rng, n: int, m: int, count: int) -> np.ndarray:
    """Dirichlet rows with ``count`` all-zero output columns (values stay finite)."""
    matrix = _dirichlet(rng, n, m)
    matrix[:, rng.choice(m, size=count, replace=False)] = 0.0
    return matrix / matrix.sum(axis=1, keepdims=True)


def _partial_zeros(rng, n: int, m: int, share: float) -> np.ndarray:
    """Dirichlet rows with zeros in some rows of a column (values become +inf)."""
    matrix = _dirichlet(rng, n, m)
    mask = rng.random((n, m)) < share
    mask &= ~mask.all(axis=0)[None, :]
    mask &= ~mask.all(axis=1)[:, None]
    if not mask.any():
        mask[rng.integers(n), rng.integers(m)] = True
    matrix = np.where(mask, 0.0, matrix)
    return matrix / matrix.sum(axis=1, keepdims=True)


# every closed-form branch of the order square, plus the named closed forms
CLOSED_CALLS = (
    ("abl", 2.0, 3.0),             # beta > alpha: pairwise power form
    ("abl", 3.0, 3.0),             # beta = alpha
    ("abl", math.inf, 2.0),        # alpha = inf
    ("abl", 2.0, math.inf),        # beta = inf: scaled sup log ratio
    ("abl", math.inf, math.inf),   # both infinite: local differential privacy
    ("lrdp", 2.0, None),
    ("lrdp-variant", None, 2.0),
    ("ldp", None, None),
    ("maxl", None, None),
)


class ClosedLarge:
    name = "closed-large"
    salt = 2
    tail_level = 0.90

    def inputs(self, seed: int, pass_index: int, workdir: Path) -> dict:
        rng = _rng(seed, pass_index, self.salt)
        return {
            "150 dense": _dirichlet(rng, 150, 150),
            "200 dense": _dirichlet(rng, 200, 200),
            "150 zero-columns": _zero_columns(rng, 150, 150, 15),
            "200 partial-zeros": _partial_zeros(rng, 200, 200, 0.02),
            "100 capacity": _dirichlet(rng, 100, 100),
        }

    def build(self, lib, inputs: dict) -> dict:
        return {label: lib.validate_channel(matrix) for label, matrix in inputs.items()}

    def ops(self, lib, built: dict) -> list[Op]:
        ops = []
        for label, channel in built.items():
            ref = Reference(channel.matrix)
            if label == "100 capacity":
                call = lambda c=channel: lib.shannon_capacity(c, CAPACITY_TOLERANCE)  # noqa: E731
                ops.append(_closed_op(label, ("capacity", None, None), call, ref, CAPACITY_TOLERANCE))
                continue
            for spec in CLOSED_CALLS:
                ops.append(_closed_op(label, spec, _closed_call(lib, channel, spec), ref))
        return ops


def _closed_call(lib, channel, spec):
    name, alpha, beta = spec
    if name == "abl":
        order = lib.OrderPair(alpha, beta)
        return lambda: lib.maximal_alpha_beta_leakage(channel, order)
    if name == "lrdp":
        return lambda: lib.lrdp(channel, alpha)
    if name == "lrdp-variant":
        return lambda: lib.lrdp_variant(channel, beta)
    if name == "ldp":
        return lambda: lib.ldp(channel)
    return lambda: lib.maximal_leakage(channel)


def _closed_op(label: str, spec, call, ref: Reference, tolerance: float = CLOSED_TOL) -> Op:
    name, alpha, beta = spec

    def check(result) -> Outcome:
        value = result.value.nats if hasattr(result, "value") else result.nats
        return _value_outcome(value, ref.measure(name, alpha=alpha, beta=beta), tolerance)

    params = ",".join(f"{v:g}" for v in (alpha, beta) if v is not None)
    return Op(f"{name}({params}) {label}", call, check)


# ---------------------------------------------------------------- cli-battery

# compute: every measure, on each 3x3 CSV (abl also at two closed-form orders)
CLI_MEASURES = (
    ("abl", {"alpha": 3.0, "beta": 1.5}),
    ("abl", {"alpha": 2.0, "beta": 3.0}),
    ("abl", {"alpha": math.inf, "beta": math.inf}),
    ("maxl", {}),
    ("max-alpha-l", {"alpha": 2.0}),
    ("ldp", {}),
    ("lrdp", {"alpha": 2.0}),
    ("lrdp-variant", {"beta": 2.0}),
    ("alpha-tau", {"alpha": 2.0, "tau": 0.5}),
    ("capacity", {}),
)
SEARCH_MEASURES = {"max-alpha-l", "alpha-tau"}
# An uncertified CLI search states its gap as
# "warning: search gap 3.182e-02 exceeds the tolerance" (compute) or names
# the cell as "warning: grid point (4, 2) did not certify convergence" (sweep,
# which states no gap, so such a cell's value is checked from above only).
GAP_WARNING = re.compile(r"search gap (\S+) exceeds")
CELL_WARNING = re.compile(r"grid point \((\S+), (\S+)\) did not certify")
SWEEP_GRIDS = (
    ("--alpha", "2,4,inf", "--beta", "1,1.5,2,inf"),
    ("--alpha", "2", "--tau", "0,0.5,1"),
)
# verify runs the seeded battery of acceptance test A8 (seed 5), with and
# without structural zeros; these two commands do not depend on the seed
VERIFY_COMMANDS = (
    ("verify", "--random", "1", "--seed", "5"),
    ("verify", "--random", "1", "--seed", "5", "--allow-zeros"),
)


def _write_csv(path: Path, matrix: np.ndarray) -> None:
    path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in matrix), encoding="ascii")


def load_anchors() -> list[dict]:
    """Fixed CLI cases with their stored 12-digit outputs."""
    return json.loads(ANCHORS_FILE.read_text(encoding="utf-8"))["anchors"]


def run_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``chanleak.cli.main`` call with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class CliBattery:
    name = "cli-battery"
    salt = 3
    tail_level = 0.95

    def inputs(self, seed: int, pass_index: int, workdir: Path) -> dict:
        rng = _rng(seed, pass_index, self.salt)
        base = workdir / f"pass{pass_index}"
        base.mkdir(parents=True, exist_ok=True)
        matrices = {
            "six": _dirichlet(rng, 6, 6),
            "dense-a": _dirichlet(rng, 3, 3),
            "dense-b": _dirichlet(rng, 3, 3),
            "zero-column": _zero_columns(rng, 3, 3, 1),
            "partial-zero": _partial_zeros(rng, 3, 3, 0.3),
        }
        files = {}
        for label, matrix in matrices.items():
            files[label] = base / f"{label}.csv"
            _write_csv(files[label], matrix)
        anchors = load_anchors()
        for k, anchor in enumerate(anchors):
            files[f"anchor{k}"] = base / f"anchor{k}.csv"
            _write_csv(files[f"anchor{k}"], np.array(anchor["channel"], dtype=float))
        return {"files": files, "anchors": anchors}

    def build(self, lib, inputs: dict) -> dict:
        channels = {label: lib.read_channel_csv(path) for label, path in inputs["files"].items()}
        return {**inputs, "channels": channels}

    def ops(self, lib, built: dict) -> list[Op]:
        files, channels = built["files"], built["channels"]
        refs = {label: Reference(channel.matrix) for label, channel in channels.items()}
        ops = [_verify_op(lib, list(argv)) for argv in VERIFY_COMMANDS]
        ops += [_sweep_op(lib, str(files["six"]), list(grid), refs["six"]) for grid in SWEEP_GRIDS]
        for label in ("dense-a", "dense-b", "zero-column", "partial-zero"):
            for measure, params in CLI_MEASURES:
                ops.append(_compute_op(lib, label, files[label], channels[label], refs[label], measure, params))
        for k, anchor in enumerate(built["anchors"]):
            ops.append(_anchor_op(lib, files[f"anchor{k}"], anchor))
        return ops


def _cli_op(lib, label: str, argv: list[str], check_output) -> Op:
    def check(result) -> Outcome:
        code, out, err = result
        return check_output(code, out, err)

    return Op(label, lambda: run_cli(lib, argv), check)


def _verify_op(lib, argv: list[str]) -> Op:
    def check(code, out, err) -> Outcome:
        lines = out.strip().splitlines()
        fails = [line for line in lines if "FAIL" in line.split()]
        summary = lines[-1].split() if lines else []
        complete = len(summary) >= 3 and summary[1] == "of" and summary[0] == summary[2]
        if code != 0 or fails or not complete:
            return Outcome(True, detail=f"exit {code}; {fails or lines[-1:]} {err.strip()[:200]}")
        return Outcome(False)

    return _cli_op(lib, " ".join(argv), argv, check)


def _sweep_op(lib, path: str, grid: list[str], ref: Reference) -> Op:
    by_tau = "--tau" in grid
    argv = ["sweep", "--channel", path, *grid]

    def check(code, out, err) -> Outcome:
        if code not in (0, 3):
            return Outcome(True, detail=f"exit {code}: {err.strip()[:200]}")
        lines = out.strip().splitlines()
        header = "alpha,tau,value_nats" if by_tau else "alpha,beta,value_nats"
        if not lines or lines[0] != header:
            return Outcome(True, detail=f"unexpected header {lines[:1]}")
        stragglers = {(float(a), float(s)) for a, s in CELL_WARNING.findall(err)}
        if bool(stragglers) != (code == 3):
            return Outcome(True, detail=f"exit {code} with {len(stragglers)} uncertified cells named")
        for line in lines[1:]:
            alpha, second, value = (float(token) for token in line.split(","))
            beta = reference.tau_beta(alpha, second) if by_tau else second
            tolerance = CONCAVE_TOL if beta < alpha else CLOSED_TOL
            gap = math.inf if (alpha, second) in stragglers else 0.0
            outcome = _value_outcome(value, ref.family(alpha, beta), tolerance, gap)
            if outcome.failed:
                outcome.detail = f"cell ({alpha:g}, {second:g}): {outcome.detail}"
                return outcome
        expected = len(grid[1].split(",")) * len(grid[3].split(","))
        if len(lines) - 1 != expected:
            return Outcome(True, detail=f"{len(lines) - 1} rows for {expected} grid cells")
        return Outcome(False, uncertified=code == 3)

    return _cli_op(lib, " ".join(["sweep", *grid]), argv, check)


def _compute_op(lib, label: str, path: Path, channel, ref: Reference, measure: str, params: dict) -> Op:
    argv = ["compute", "--channel", str(path), "--measure", measure]
    for key, value in params.items():
        argv += [f"--{key}", f"{value:g}"]
    search = measure in SEARCH_MEASURES or (measure == "abl" and params["beta"] < params["alpha"])

    def check(code, out, err) -> Outcome:
        if code not in ((0, 3) if search else (0,)):
            return Outcome(True, detail=f"exit {code}: {err.strip()[:200]}")
        lines = out.strip().splitlines()
        try:
            value = float(lines[0])
        except (IndexError, ValueError):
            return Outcome(True, detail=f"unparseable output {lines[:1]}")
        gap = 0.0
        if code == 3:
            stated = GAP_WARNING.search(err)
            if stated is None:
                return Outcome(True, detail=f"exit 3 without a stated gap: {err.strip()[:200]}")
            gap = float(stated.group(1)) * 1.001  # printed to four digits
        outcome = _value_outcome(value, ref.measure(measure, **params), CONCAVE_TOL if search else CLOSED_TOL, gap)
        if search and not outcome.failed:
            alpha = params["alpha"]
            beta = reference.tau_beta(alpha, params["tau"]) if "tau" in params else params.get("beta", 1.0)
            outcome = _grid_outcome(lib, channel, lib.OrderPair(alpha, beta), value, gap) or outcome
        outcome.uncertified = code == 3
        return outcome

    return _cli_op(lib, f"compute {measure} {label}", argv, check)


def _anchor_op(lib, path: Path, anchor: dict) -> Op:
    argv = ["compute", "--channel", str(path), *anchor["args"]]

    def check(code, out, err) -> Outcome:
        if code != 0 or out != anchor["stdout"]:
            return Outcome(True, detail=f"exit {code}, printed {out!r}, stored {anchor['stdout']!r}")
        return Outcome(False)

    return _cli_op(lib, f"compute {' '.join(anchor['args'])} (anchor)", argv, check)


WORKLOADS = {w.name: w for w in (ConcaveMid(), ClosedLarge(), CliBattery())}
