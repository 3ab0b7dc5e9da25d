"""Command-line front end.

Subcommands: rd (rate-distortion of a fixed source), region (membership and
constraint listing), synthesize (switch-rule construction), optimize
(worst-case rates), simulate (Monte Carlo game runs). Output is buffered and
written in one piece, so a failing command never leaves a partial file.

Exit codes: 0 success, 2 mathematically infeasible (for a synthesis target,
outside the region by the same subset test as region --check),
3 malformed input, 4 desk-scale guard or iteration budget exceeded, a rate
bracket that would not close, or a synthesized rule that misses an
attainable target.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from collections.abc import Iterable
from fractions import Fraction
from functools import cache

from .errors import (
    ConvergenceError,
    GuardError,
    InfeasibleError,
    SwitchRdError,
    ValidationError,
)
from .game_sim import build_covering_codebook, simulate_game
from .optimizer import maximize_over_hull, maximize_over_region, rd_tilde_curve
from .probcore import Distribution, _check_pmf_entries
from .problem import ProblemSpec, load_problem, parse_nonnegative, parse_vector
from .rate_distortion import RATE_TOL, rate_at_distortion, rd_curve
from .region import RegionSpec, _subset_labels, enumerate_constraints, format_subset, is_member
from .strategy import SwitchRule, _check_rule_covers, synthesize_rule


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: Iterable[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _distribution(text: str) -> Distribution:
    """A law read from a CLI vector; its entries are exact, so a negative one
    is refused before the float conversion could pass it as rounding noise."""
    values = parse_vector(text)
    _check_pmf_entries(values, "distribution")
    return Distribution([float(x) for x in values])


def _region_spec(problem: ProblemSpec) -> RegionSpec:
    return RegionSpec(problem.sources, problem.delta)


def _emit_certificate(exc: InfeasibleError, output: str | None) -> int:
    """Print the violated subset that makes a target unattainable; exit code 2."""
    _emit(
        f"INFEASIBLE V={format_subset(exc.certificate)} "
        f"lhs={_fmt(exc.lhs)} rhs={_fmt(exc.rhs)}\n",
        output,
    )
    return 2


def cmd_rd(args) -> int:
    problem = load_problem(args.problem)
    p = _distribution(args.p)
    if p.size != problem.alphabet_x:
        raise ValidationError("--p length must match alphabet_x")
    if args.curve is not None:
        curve = rd_curve(p, problem.distortion, args.curve, args.tol)
        rows = [[_fmt(pt.distortion), _fmt(pt.rate)] for pt in curve.points]
    else:
        target = parse_nonnegative(args.distortion, "distortion target")
        pt = rate_at_distortion(p, problem.distortion, target, args.tol)
        rows = [[_fmt(pt.distortion), _fmt(pt.rate)]]
    _emit(_csv_text(["D", "R"], rows), args.output)
    return 0


def cmd_region(args) -> int:
    problem = load_problem(args.problem)
    spec = _region_spec(problem)
    if args.list:
        rows = (
            [mask, label, str(rhs) if isinstance(rhs, Fraction) else _fmt(rhs)]
            for (mask, rhs), label in zip(
                enumerate_constraints(spec), _subset_labels(problem.alphabet_x)
            )
        )
        _emit(_csv_text(["subset_mask", "symbols", "rhs"], rows), args.output)
        return 0
    p = _distribution(args.check)
    report = is_member(p, spec)
    if report.satisfied:
        _emit("MEMBER\n", args.output)
    else:
        lines = [
            f"VIOLATION V={format_subset(mask)} lhs={_fmt(lhs)} rhs={_fmt(rhs)}"
            for mask, lhs, rhs in report.violations
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_synthesize(args) -> int:
    problem = load_problem(args.problem)
    target = _distribution(args.target)
    try:
        rule = synthesize_rule(target, problem.sources)
    except InfeasibleError as exc:
        return _emit_certificate(exc, args.output)
    _emit(rule.serialize(), args.output)
    return 0


def cmd_optimize(args) -> int:
    problem = load_problem(args.problem)
    spec = _region_spec(problem)
    d = problem.distortion
    if args.curve is not None:
        curve = rd_tilde_curve(spec, d, args.curve, args.tol)
        targets = [t for t, _ in curve]
        region_results = [r for _, r in curve]
    else:
        targets = [parse_nonnegative(args.distortion, "distortion target")]
        region_results = [maximize_over_region(spec, d, targets[0], args.tol)]
    k = problem.alphabet_x
    header = ["D", "R_tilde", "R_star"] + [f"p_{i}" for i in range(k)] + ["method"]
    rows = []
    for target, reg in zip(targets, region_results):
        best = reg
        if problem.sources.is_joint:
            r_star = ""
        else:
            hull = maximize_over_hull(
                problem.sources, d, target, args.tol, start=(reg.slope, reg.law)
            )
            r_star = _fmt(hull.value)
            # the hull lies in the region, so its maximum is a region point
            # too, and one the region's search fell short of
            if hull.value > reg.value and is_member(hull.argmax, spec).satisfied:
                best = hull
        rows.append(
            [_fmt(target), _fmt(best.value), r_star]
            + [_fmt(x) for x in best.argmax.probs]
            + [reg.method]
        )
    _emit(_csv_text(header, rows), args.output)
    return 0


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    spec = _region_spec(problem)
    if args.rule is not None:
        try:
            with open(args.rule) as fh:
                rule = SwitchRule.parse(fh.read())
        except OSError as exc:
            raise ValidationError(f"cannot read rule file: {exc}") from exc
    else:
        target = _distribution(args.target)
        try:
            rule = synthesize_rule(target, problem.sources)
        except InfeasibleError as exc:
            return _emit_certificate(exc, args.output)
    # the rule is checked before a codebook, which may be slow or refused, is built
    _check_rule_covers(rule, problem.sources)
    codebook = None
    if args.codebook_D is not None:
        codebook_d = parse_nonnegative(args.codebook_D, "distortion target")
        codebook = build_covering_codebook(spec, problem.distortion, codebook_d, args.n)
    report = simulate_game(
        problem.sources,
        rule,
        codebook,
        problem.distortion,
        args.n,
        args.trials,
        args.seed,
        region=spec,
    )
    if args.csv:
        _emit(_csv_text(report.csv_header(), [report.csv_row()]), args.output)
    else:
        _emit(report.to_kv(), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _add_common(sub) -> None:
    sub.add_argument("problem", help="problem file (YAML)")
    sub.add_argument("--output", help="write output to this file instead of stdout")


def _add_tol(sub) -> None:
    """The rate solver's tolerance, for the subcommands that solve rates."""
    sub.add_argument(
        "--tol",
        type=float,
        default=RATE_TOL,
        help="width in bits of the certified bracket on which each rate R_p(D) "
        f"stops (default {RATE_TOL})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="switchrd", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    rd = subs.add_parser("rd", help="rate-distortion of a fixed source")
    _add_common(rd)
    _add_tol(rd)
    rd.add_argument("--p", required=True, help="source PMF, e.g. '1/2,1/2'")
    group = rd.add_mutually_exclusive_group(required=True)
    group.add_argument("--distortion", help="target distortion")
    group.add_argument("--curve", type=int, help="number of curve points")
    rd.set_defaults(func=cmd_rd)

    region = subs.add_parser("region", help="attainable-region queries")
    _add_common(region)
    group = region.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", help="distribution to test for membership")
    group.add_argument("--list", action="store_true", help="list all constraints")
    region.set_defaults(func=cmd_region)

    synth = subs.add_parser("synthesize", help="construct a switch rule for a target")
    _add_common(synth)
    synth.add_argument("--target", required=True, help="target distribution")
    synth.set_defaults(func=cmd_synthesize)

    opt = subs.add_parser("optimize", help="worst-case rates over the region")
    _add_common(opt)
    _add_tol(opt)
    group = opt.add_mutually_exclusive_group(required=True)
    group.add_argument("--distortion", help="target distortion")
    group.add_argument("--curve", type=int, help="number of curve points")
    opt.set_defaults(func=cmd_optimize)

    sim = subs.add_parser("simulate", help="Monte Carlo game simulation")
    _add_common(sim)
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="target distribution (rule is synthesized)")
    group.add_argument("--rule", help="switch-rule file")
    sim.add_argument("--n", type=int, default=100, help="blocklength per trial")
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--codebook-D",
        dest="codebook_D",
        default=None,
        help="build a covering codebook at this distortion and report against it",
    )
    sim.add_argument("--csv", action="store_true", help="emit a CSV row instead of key=value")
    sim.set_defaults(func=cmd_simulate)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves no state
    on the parser, so every call of ``main`` can share it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (GuardError, ConvergenceError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 4
    except SwitchRdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
