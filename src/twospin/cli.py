"""Command-line surface: one subcommand per library operation.

Reports go to standard output as JSON (sorted keys, so identical runs are
byte-identical); grids go to CSV files.  Every randomized command takes an
explicit --seed and echoes it; there are no environment-variable overrides.

Each subcommand is a row of `COMMANDS` or `CHECKS` (the `verify` checks): a
function from the parsed arguments to the report dict, a help line and its
argument specs.  `main` alone prints the report and picks the exit code.
A report echoes each flag of its row under its argparse dest unless the
spec says `echo=False`; handlers pass only the values they compute.  A
command imports only the modules it runs: `twospin.analysis`, `.e2lin2`,
`.reduction` and `.uniqueness` resolve through the package on first use, and
a subcommand's flags (some defaults live in those modules) are added only
once argparse has picked it.

Exit codes: 0 success (and verification passed), 1 verification failure
(the report has "pass": false or a failed entry in "checks"), 2 usage or
I/O error, 3 resource-cap refusal, 4 internal error (a bug: the traceback
goes to standard error).
"""

import argparse
import itertools
import json
import math
import sys
import traceback

import numpy as np

import twospin
from . import spins
from .errors import ResourceLimitError, UsageError
from .graphs import (complete_bipartite_graph, complete_graph, cycle_graph,
                     hypercube_graph, petersen_graph, prism_graph, read_graph,
                     scaled_graph, single_edge, write_graph)
from .logspace import LOG_ZERO
from .spins import SpinParams, field_identity_report, log_partition, remove_field

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
MAX_PHASE_CELLS = 1 << 20    # phase-map grid cells: about 13 s at the cap, memory flat
MAX_POLARIZED_PAIRS = 1000   # verify polarized --pairs: about 0.03 s each, drawn up front
INT64 = range(-2 ** 63, 2 ** 63)  # the values of an integer flag, unless listed below
ANY_INT_FLAGS = ("seed", "max_degree", "max_vertices", "max_vars")  # seeded or compared only


def _num(value, scale):
    if scale == "log" and value == LOG_ZERO:
        value = None  # an exactly-zero sum; JSON has no -Infinity
    return {"value": value, "scale": scale}


def _check(name, passed, lhs, rhs, tolerance):
    return {"name": name, "pass": bool(passed), "lhs": lhs, "rhs": rhs,
            "tolerance": tolerance}


def _echo(args, extras):
    """The flags a report echoes, then the handler's computed values."""
    return {**{dest: getattr(args, dest) for dest in args.echo}, **extras}


def _report(args, outputs, checks=(), **extras):
    return {"command": args.command, "inputs": _echo(args, extras),
            "outputs": outputs, "checks": list(checks)}


def _verify_report(args, value, bound, passed, margin, checks=(), **extras):
    return {"command": "verify", "check": args.check, "params": _echo(args, extras),
            "value": value, "bound": bound, "pass": bool(passed),
            "margin": margin, "checks": list(checks)}


def _write_csv(path, header, rows):
    """Open `path` only once the first row exists: a refusal raised before it
    creates no file and truncates none."""
    rows = iter(rows)
    first = list(itertools.islice(rows, 1))
    with open(path, "w", encoding="ascii") as fh:
        for row in itertools.chain([header], first, rows):  # a float's str is its repr
            fh.write(",".join("" if x is None else str(x) for x in row) + "\n")


def _spin_params(args) -> SpinParams:
    return SpinParams(args.beta, args.gamma, args.mu)


# ---------------------------------------------------------------------------
# Plain subcommands


def _cmd_z(args):
    g = read_graph(args.graph)
    value = log_partition(g, _spin_params(args), max_vertices=args.max_vertices,
                          threads=args.threads)
    return _report(args, {"log_z": _num(value, "log")},
                   num_vertices=g.num_vertices, num_edges=g.num_edges)


def _cmd_uniqueness(args):
    rep = twospin.uniqueness.uniqueness_check(_spin_params(args), args.degree)
    return _report(args, {"x_hat": _num(rep.x_hat, "linear"),
                          "derivative_magnitude": _num(rep.derivative_magnitude, "linear"),
                          "unique": rep.unique})


def _cmd_threshold(args):
    scan = twospin.uniqueness.first_nonunique_degree(_spin_params(args), args.max_degree)
    return _report(args, {"degree": _num(scan.degree, "count"),
                          "exhausted": scan.exhausted})


def _cmd_phase_map(args):
    if (cells := args.beta_steps * args.gamma_steps) > MAX_PHASE_CELLS:
        raise ResourceLimitError(f"{cells} grid cells exceed cap {MAX_PHASE_CELLS}")
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    gammas = np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)
    header = ("beta", "gamma", "mu", "d", "region", "x_hat", "deriv_mag")
    counts = {}

    def rows():
        for row in twospin.uniqueness.phase_grid(
                betas.tolist(), gammas.tolist(), args.mu, args.degree,
                args.region_constant):
            counts[row["region"]] = counts.get(row["region"], 0) + 1
            yield [row[k] for k in header]

    _write_csv(args.out, header, rows())
    return _report(args, {"rows": _num(int(betas.size * gammas.size), "count"),
                          "regions": {k: counts[k] for k in sorted(counts)}})


def _cmd_reduce(args):
    reduction = twospin.reduction
    inst, _ = twospin.e2lin2.normalize(twospin.e2lin2.read_instance(args.instance))
    params = reduction.GadgetParams(args.delta, args.delta_prime,
                                    args.block_size, args.seed)
    rg = reduction.build_reduction_graph(inst, params)
    audit = reduction.audit_reduction_graph(rg)
    graph_path = args.out_prefix + ".graph"
    blocks_path = args.out_prefix + ".blocks"
    write_graph(rg.graph, graph_path)
    reduction.write_blocks(rg, blocks_path)
    return _report(args,
                   {"graph_file": graph_path, "blocks_file": blocks_path,
                    "num_vertices": _num(rg.graph.num_vertices, "count"),
                    "degree": _num(audit.degree, "count")},
                   [_check("structure-audit", audit.passed,
                           audit.degree, audit.expected_degree, 0)],
                   block_size_is_num_equations=args.block_size == inst.num_equations)


def _cmd_gadget(args):
    h = twospin.reduction.sample_gadget(args.side, args.delta, args.seed)
    if args.out:
        write_graph(h.graph, args.out)
    return _report(args, {"num_vertices": _num(h.graph.num_vertices, "count"),
                          "distinct_degrees": sorted(set(h.graph.degrees()))})


def _cmd_theta_star(args):
    inst = twospin.e2lin2.read_instance(args.instance)
    best, witness = twospin.e2lin2.best_assignment(inst, max_vars=args.max_vars)
    return _report(args, {"max_satisfied": _num(best, "count"),
                          "witness": list(witness)},
                   num_vars=inst.num_vars, num_equations=inst.num_equations)


def _cmd_decode(args):
    reduction, case = twospin.reduction, twospin.uniqueness.SplitCase(args.case)
    if args.log_c is not None and args.log_d is not None:
        constants = reduction.BoundsConstants(args.log_c, args.log_d, case)
    elif None not in (args.beta, args.gamma, args.delta, args.delta_prime):
        constants = reduction.bounds_constants(
            SpinParams(args.beta, args.gamma), args.delta, args.delta_prime, case)
    else:
        raise UsageError("pass --log-c/--log-d, or beta/gamma/delta/delta-prime")
    value = reduction.decode_satisfied_estimate(
        args.log_y, args.n, args.m, constants,
        relative_error=args.eps, slack=args.slack)
    return _report(args, {"satisfied_estimate": _num(value, "linear")},
                   log_c=constants.log_c, log_d=constants.log_d,
                   case=constants.case.value)


def _cmd_translate_field(args):
    p_prime, per_edge = remove_field(_spin_params(args), args.degree)
    return _report(args, {"beta_prime": _num(p_prime.beta, "linear"),
                          "gamma_prime": _num(p_prime.gamma, "linear"),
                          "mu_prime": _num(1.0, "linear"),
                          "per_edge_log_prefactor": _num(per_edge, "log")})


# ---------------------------------------------------------------------------
# Verification subcommands


def _toy_instances():
    mk = twospin.e2lin2.E2Lin2Instance
    return [
        mk(2, ((0, 1, 1),)),
        mk(2, ((0, 1, 0), (0, 1, 1))),
        mk(3, ((0, 1, 1), (1, 2, 0))),
        mk(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1))),
    ]


def _verify_polarized(args):
    if args.pairs > MAX_POLARIZED_PAIRS:
        raise ResourceLimitError(f"{args.pairs} pairs exceed cap {MAX_POLARIZED_PAIRS}")
    reduction = twospin.reduction
    rng = np.random.default_rng(args.seed)
    pairs = [(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
             for _ in range(args.pairs)]
    worst = 0.0
    cases = 0
    for inst in _toy_instances():
        for t, delta, delta_prime in itertools.product((1, 2), repeat=3):
            rg = reduction.build_reduction_graph(
                inst, reduction.GadgetParams(delta, delta_prime, t, args.seed + cases))
            for beta, gamma in pairs:
                p = SpinParams(beta, gamma)
                for enc in range(1 << inst.num_vars):
                    bits = tuple((enc >> i) & 1 for i in range(inst.num_vars))
                    closed = reduction.log_polarized_sum_closed(rg, bits, p)
                    brute = reduction.log_polarized_sum_brute(rg, bits, p,
                                                              threads=args.threads)
                    worst = max(worst, abs(closed - brute) / max(1.0, abs(closed)))
                    cases += 1
    return _verify_report(args, worst, args.tolerance, worst <= args.tolerance,
                          args.tolerance - worst, cases=cases)


def _verify_gadget_mean(args):
    analysis = twospin.analysis
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for n_side, delta in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
        beta, gamma = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))
        p = SpinParams(beta, gamma)
        table = analysis.enumerate_profile_sums_mean_log(n_side, delta, 1, p).tolist()
        for an in range(n_side + 1):
            for bn in range(n_side + 1):
                exact = analysis.expected_profile_sum_log(n_side, delta, 1, p,
                                                          an / n_side, bn / n_side)
                enum = table[an][bn]
                if exact == LOG_ZERO and enum == LOG_ZERO:
                    continue
                worst = max(worst, abs(exact - enum) / max(1.0, abs(exact)))
    formula_ok = worst <= args.tolerance
    p = SpinParams(0.4, 0.7)
    est = analysis.expected_profile_sum_mc(3, 2, 1, p, 1 / 3, 1 / 3,
                                           trials=args.trials, seed=args.seed)
    target = math.exp(analysis.expected_profile_sum_log(3, 2, 1, p, 1 / 3, 1 / 3))
    mc_ok = est.within(target, 4.0)
    checks = [_check("exact-vs-enumeration", formula_ok, worst, args.tolerance,
                     args.tolerance),
              _check("monte-carlo-4-sigma", mc_ok, est.mean, target, 4.0 * est.std_error)]
    return _verify_report(args, worst, args.tolerance, formula_ok and mc_ok,
                          args.tolerance - worst, checks)


def _verify_rate_bound(args):
    grid = {"c": args.c, "min_fraction": args.min_fraction, "step": args.step}
    scan = twospin.analysis.rate_bound_scan(**grid)
    if args.out:
        _write_csv(args.out, ("a", "b", "rate_bound"),
                   twospin.analysis.rate_bound_grid(**grid))
    passed = scan.max_value < args.bound
    return _verify_report(args, scan.max_value, args.bound, passed,
                          args.bound - scan.max_value,
                          [_check("grid-max-below-bound", passed,
                                  scan.max_value, args.bound, 0.0),
                           _check("argmax", True,
                                  scan.arg_a, scan.arg_b, 0.0)])


def _verify_expander(args):
    analysis = twospin.analysis
    analysis.check_audit_side(args.side)  # before any gadget is sampled
    worst = math.inf
    for k in range(args.seeds):
        h = twospin.reduction.sample_gadget(args.side, args.delta, args.seed + k)
        audit = analysis.expander_audit(h, eps=args.eps, factor=args.factor)
        worst = min(worst, audit.worst_ratio)
    passed = worst >= args.factor
    return _verify_report(args, worst, args.factor, passed, worst - args.factor,
                          [_check("worst-ratio-above-factor",
                                  passed, worst, args.factor, 0.0)])


def _verify_field(args):
    corpus = [single_edge(), cycle_graph(4), cycle_graph(5), cycle_graph(6),
              complete_graph(4), complete_graph(5), complete_bipartite_graph(3, 3),
              prism_graph(), petersen_graph(), hypercube_graph(3),
              scaled_graph(cycle_graph(4), 2)]
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for g in corpus:
        for _ in range(args.pairs):
            p = SpinParams(float(rng.uniform(0.0, 1.5)),
                           float(rng.uniform(0.05, 1.5)),
                           float(10 ** rng.uniform(-2, 2)))
            rep = field_identity_report(g, p, threads=args.threads)
            worst = max(worst, rep.gap)
    return _verify_report(args, worst, args.tolerance, worst <= args.tolerance,
                          args.tolerance - worst, graphs=len(corpus))


def _verify_sandwich(args):
    reduction = twospin.reduction
    worst = -math.inf
    audits_ok = True
    for k in range(args.seeds):
        rng = np.random.default_rng(args.seed + k)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(max(1, n - 1), 4))
        inst = twospin.e2lin2.random_instance(n, m, int(rng.integers(1 << 31)))
        params = reduction.GadgetParams(
            int(rng.integers(1, 3)), int(rng.integers(1, 3)), 1,
            int(rng.integers(1 << 31)))
        rg = reduction.build_reduction_graph(inst, params)
        audits_ok = audits_ok and reduction.audit_reduction_graph(rg).passed
        p = SpinParams(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
        rep = reduction.sandwich_check(rg, p, tolerance=args.tolerance,
                                       threads=args.threads)
        worst = max(worst,
                    rep.log_max_restricted - rep.log_total,
                    rep.log_total - rep.log_sum_restricted)
    return _verify_report(args, worst, args.tolerance,
                          worst <= args.tolerance and audits_ok,
                          args.tolerance - worst,
                          [_check("structure-audits", audits_ok, args.seeds, args.seeds, 0)],
                          runs=args.seeds)


def _verify_coupling(args):
    rep = twospin.analysis.coupling_sim(args.n, args.b, args.d, args.seed, args.trials,
                                        a=args.a, chi2_alpha=args.alpha)
    checks = [
        _check("zero-domination-violations", rep.domination_violations == 0,
               rep.domination_violations, 0, 0),
        _check("first-step-frequency-4-sigma", rep.z1_within_4_sigma,
               rep.z1_frequency, rep.z1_expected, 4.0 * rep.z1_stderr),
        _check("chi-square-accepts", rep.chi2_pvalue > rep.chi2_alpha,
               rep.chi2_pvalue, rep.chi2_alpha, 0.0),
    ]
    return _verify_report(args, rep.chi2_pvalue, rep.chi2_alpha, rep.passed,
                          rep.chi2_pvalue - rep.chi2_alpha, checks)


# ---------------------------------------------------------------------------
# Command tables and parser


def _arg(*flags, **options):
    return flags, options


class _Later:
    """A flag option read from a lazily imported module when its command's
    parser is built."""

    def __init__(self, read):
        self.read = read


def positive_int(text):
    """argparse type of a count flag: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text):
    """argparse type of a seed flag: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


MU = _arg("--mu", type=float, default=1.0)
SPIN = (_arg("--beta", type=float, required=True),
        _arg("--gamma", type=float, required=True), MU)
SEED = _arg("--seed", type=nonnegative_int, default=0)
TOLERANCE = _arg("--tolerance", type=float, default=1e-9)
THREADS = _arg("--threads", type=positive_int, default=1, echo=False)
DEGREE = _arg("--degree", type=int, required=True)
DELTA = _arg("--delta", type=int, required=True)
INSTANCE = _arg("--instance", required=True)

COMMANDS = {
    "z": (_cmd_z, "exact log partition sum of a graph file", (
        _arg("--graph", required=True), *SPIN,
        _arg("--max-vertices", type=int, default=spins.DEFAULT_MAX_VERTICES, echo=False),
        THREADS)),
    "uniqueness": (_cmd_uniqueness, "fixed point and derivative criterion",
                   (*SPIN, DEGREE)),
    "threshold": (_cmd_threshold, "first degree failing uniqueness", (
        *SPIN, _arg("--max-degree", type=int, default=64))),
    "phase-map": (_cmd_phase_map, "classified (beta, gamma) grid to CSV", (
        _arg("--beta-min", type=float, required=True),
        _arg("--beta-max", type=float, required=True),
        _arg("--beta-steps", type=positive_int, required=True),
        _arg("--gamma-min", type=float, required=True),
        _arg("--gamma-max", type=float, required=True),
        _arg("--gamma-steps", type=positive_int, required=True),
        MU, DEGREE,
        _arg("--region-constant", type=float,
             default=_Later(lambda: twospin.uniqueness.DEFAULT_REGION_CONSTANT),
             help="the h in the unit-square region test d >= h/(1-beta*gamma)"),
        _arg("--out", required=True))),
    "reduce": (_cmd_reduce, "build a reduction graph from an instance", (
        INSTANCE, DELTA, _arg("--delta-prime", type=int, required=True),
        _arg("--block-size", type=int, required=True), SEED,
        _arg("--out-prefix", required=True, echo=False))),
    "gadget": (_cmd_gadget, "sample a random matching-union gadget", (
        _arg("--side", type=positive_int, required=True), DELTA, SEED, _arg("--out"))),
    "theta-star": (_cmd_theta_star, "exhaustive optimum of an instance", (
        INSTANCE,
        _arg("--max-vars", type=int, echo=False,
             default=_Later(lambda: twospin.e2lin2.BEST_ASSIGNMENT_CAP)))),
    "decode": (_cmd_decode, "invert a partition estimate into a count", (
        _arg("--log-y", type=float, required=True),
        _arg("--n", type=positive_int, required=True),
        _arg("--m", type=positive_int, required=True),
        _arg("--log-c", type=float), _arg("--log-d", type=float),
        _arg("--beta", type=float, echo=False), _arg("--gamma", type=float, echo=False),
        _arg("--delta", type=int, echo=False), _arg("--delta-prime", type=int, echo=False),
        _arg("--case",
             default=_Later(lambda: twospin.uniqueness.SplitCase.BETA_BELOW_HALF.value),
             choices=_Later(lambda: [c.value for c in twospin.uniqueness.SplitCase])),
        _arg("--eps", type=float, default=1e-4),
        _arg("--slack", type=float, default=0.03))),
    "translate-field": (_cmd_translate_field, "fold the field into the weights",
                        (*SPIN, DEGREE)),
}

CHECKS = {
    "polarized": (_verify_polarized, "closed form vs brute force for polarized sums", (
        _arg("--pairs", type=positive_int, default=5), SEED, TOLERANCE, THREADS)),
    "gadget-mean": (_verify_gadget_mean,
                    "exact expectation vs enumeration and Monte Carlo", (
                        _arg("--trials", type=positive_int, default=20000),
                        SEED, TOLERANCE)),
    "rate-bound": (_verify_rate_bound, "grid maximum of the rate bound", (
        _arg("--c", type=float, default=_Later(lambda: twospin.analysis.DEFAULT_RATE_C)),
        _arg("--lambda", dest="min_fraction", type=float,
             default=_Later(lambda: twospin.analysis.DEFAULT_MINORITY)),
        _arg("--step", type=float, default=1e-3),
        _arg("--bound", type=float, echo=False,
             default=_Later(lambda: twospin.analysis.RATE_BOUND_CEILING)),
        _arg("--out", help="optional CSV dump of the exact grid values"))),
    "expander": (_verify_expander, "edge-expansion audit of sampled gadgets", (
        _arg("--side", type=positive_int, default=8),
        _arg("--delta", type=int, default=48),
        _arg("--seeds", type=positive_int, default=20), SEED,
        _arg("--eps", type=float, default=0.25),
        _arg("--factor", type=float,
             default=_Later(lambda: twospin.analysis.DEFAULT_EXPANSION_FACTOR)))),
    "field": (_verify_field, "field-translation identity on regular graphs", (
        _arg("--pairs", type=positive_int, default=20), SEED, TOLERANCE, THREADS)),
    "sandwich": (_verify_sandwich, "restricted-sum bracketing on toy reductions", (
        _arg("--seeds", type=positive_int, default=20), SEED, TOLERANCE, THREADS)),
    "coupling": (_verify_coupling, "domination coupling simulation", (
        _arg("--n", type=int, default=4), _arg("--b", type=float, default=0.5),
        _arg("--a", type=float, default=1.0), _arg("--d", type=int, default=3),
        _arg("--trials", type=positive_int, default=100000), SEED,
        _arg("--alpha", type=float, default=1e-3))),
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it adds its flags, reading any `_Later`
    option, only when argparse picks the subcommand, and records the dests
    of the flags its report echoes as the default `echo`."""

    def __init__(self, *args, specs=(), **kwargs):
        super().__init__(*args, **kwargs)
        self._specs = specs

    def parse_known_args(self, args=None, namespace=None):
        echo = []
        for flags, options in self._specs:
            options = {key: value.read() if isinstance(value, _Later) else value
                       for key, value in options.items()}
            echoed = options.pop("echo", True)
            action = self.add_argument(*flags, **options)
            if echoed:
                echo.append(action.dest)
        if self._specs:
            self.set_defaults(echo=tuple(echo))
            self._specs = ()
        return super().parse_known_args(args, namespace)


def _add_table(subparsers, table) -> None:
    for name, (func, help_text, specs) in table.items():
        subparsers.add_parser(name, help=help_text, specs=specs).set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twospin",
        description="Exact partition sums, uniqueness thresholds and gadget "
                    "reductions for two-state spin systems.")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    _add_table(sub, COMMANDS)
    verify = sub.add_parser("verify", help="numerical verification checks")
    _add_table(verify.add_subparsers(dest="check", required=True), CHECKS)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        for name, value in vars(args).items():  # JSON holds finite numbers only
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"argument {name}: must be finite, got {value}")
            if isinstance(value, int) and name not in ANY_INT_FLAGS and value not in INT64:
                raise UsageError(f"argument {name}: must lie in [-2**63, 2**63 - 1]")
        report = args.func(args)
        print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception:  # exit 1 must keep meaning "verification failed"
        traceback.print_exc()
        return EXIT_INTERNAL
    failed = (report.get("pass") is False
              or any(not c["pass"] for c in report["checks"]))
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
