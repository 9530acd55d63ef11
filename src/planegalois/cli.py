"""Command-line front end.

Subcommands: `curve info`, `galois test`, `galois extend`, `cremona reduce`,
and `verify`.  Exit codes: 0 success / claims verified, 1 verification
failure, 2 input error, 3 undetermined.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .cremona import kodaira_pairing, line_equivalence_decision
from .curves import multiplicity_implicit
from .galois import deck_group_from_candidates
from .parsing import ParseError, render_poly
from .scenarios import (
    BUILTIN_NAMES,
    Scenario,
    ScenarioError,
    extension_entries,
    field_to_json,
    load_scenario,
    point_from_json,
    read_scenario_json,
    reduction_chain,
    run_scenario,
    scenario_from_json,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3


_GLOBAL_DEFAULTS = {
    "json": False,
    "seed": 0,
    "degree_bound": None,
    "timings": False,
}


def _global_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, help="seed for randomized certificates")
    common.add_argument("--degree-bound", type=int, help="largest y-degree of a de Jonquieres witness")
    common.add_argument("--timings", action="store_true", help="include wall-clock timings")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = argparse.ArgumentParser(
        prog="planegalois",
        description="Galois points of plane curves and their Cremona extensions, exactly.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command")

    curve = sub.add_parser("curve", help="curve inspection")
    curve_sub = curve.add_subparsers(dest="subcommand")
    info = curve_sub.add_parser("info", help="degree, representations, basic data", parents=[common])
    info.add_argument("file")

    galois = sub.add_parser("galois", help="Galois decisions")
    galois_sub = galois.add_subparsers(dest="subcommand")
    gtest = galois_sub.add_parser("test", help="decide whether the point is Galois", parents=[common])
    gtest.add_argument("file")
    gtest.add_argument("--point", required=True, help="comma-separated coordinates")
    gext = galois_sub.add_parser("extend", help="extension verdicts for one generator", parents=[common])
    gext.add_argument("file")
    gext.add_argument("--point", required=True)
    gext.add_argument("--generator", type=int, default=0, help="index into the file's generators")

    cremona = sub.add_parser("cremona", help="reduction toward lines")
    cremona_sub = cremona.add_subparsers(dest="subcommand")
    reduce_p = cremona_sub.add_parser("reduce", help="pairing arithmetic and chain stages", parents=[common])
    reduce_p.add_argument("file")

    verify = sub.add_parser("verify", help="run a built-in or file scenario", parents=[common])
    verify.add_argument("scenario", help=f"one of {', '.join(BUILTIN_NAMES)} or a JSON file")
    return parser


def render_report(report: dict, format: str = "human") -> str:
    """Deterministic text form of a report; json round-trips through json.loads."""
    if format == "json":
        return json.dumps(report, indent=2, sort_keys=False)
    lines = []
    for key, value in report.items():
        if key == "checks":
            lines.append("checks:")
            for c in value:
                mark = "ok" if c["passed"] is True else ("??" if c["passed"] == "undetermined" else "FAIL")
                lines.append(f"  [{mark}] {c['name']}: {c['detail']}")
        elif key == "extensions":
            lines.append("extensions:")
            for entry in value:
                suffix = " (proven)" if entry["proven"] else ""
                lines.append(f"  {entry['label']}: {entry['verdict']}{suffix}")
        else:
            lines.append(f"{key}: {json.dumps(value) if not isinstance(value, str) else value}")
    return "\n".join(lines)


def _emit(report: dict, as_json: bool) -> None:
    print(render_report(report, "json" if as_json else "human"))


def _exit_for(report: dict) -> int:
    status = report.get("status")
    if status == "verified":
        return EXIT_OK
    if status == "undetermined":
        return EXIT_UNDETERMINED
    return EXIT_FAILED


def run_command(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT
    if args.degree_bound is not None and args.degree_bound < 0:
        print("input error: --degree-bound must be at least 0", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "curve" and args.subcommand == "info":
            return _cmd_curve_info(args)
        if args.command == "galois" and args.subcommand == "test":
            return _cmd_galois_test(args)
        if args.command == "galois" and args.subcommand == "extend":
            return _cmd_galois_extend(args)
        if args.command == "cremona" and args.subcommand == "reduce":
            return _cmd_cremona_reduce(args)
        parser.print_help()
        return EXIT_INPUT
    except (ScenarioError, ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _cmd_verify(args) -> int:
    started = time.monotonic()
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario, seed=args.seed, degree_bound=args.degree_bound)
    if args.timings:
        report["elapsed_seconds"] = round(time.monotonic() - started, 3)
    _emit(report, args.json)
    return _exit_for(report)


def _scenario_for_file(path: str, point: Optional[str] = None) -> Scenario:
    """The scenario in a file, centred at [1:0:0] when the file names no point.
    A `--point` value replaces the center and drops the file's expectations,
    which were stated for its own point."""
    data = read_scenario_json(path)
    if "point" not in data:
        data = dict(data, point=["1", "0", "0"])
    scenario = scenario_from_json(data, name=path)
    if point is not None:
        scenario.point = point_from_json(scenario.field, point.split(","))
        scenario.expected = {}
    return scenario


def _cmd_curve_info(args) -> int:
    scenario = _scenario_for_file(args.file)
    C = scenario.curve
    report = {
        "field": field_to_json(scenario.field),
        "degree": C.degree,
        "has_parametrization": C.param is not None,
        "implicit": render_poly(C.implicit),
        "homogeneous": C.implicit.is_homogeneous(),
    }
    if C.param is not None:
        report["param"] = [render_poly(f) for f in C.param.forms]
        report["param_degree"] = C.param.degree
        report["line_equivalence"] = line_equivalence_decision(C)
    _emit(report, args.json)
    return EXIT_OK


def _cmd_galois_test(args) -> int:
    scenario = _scenario_for_file(args.file, args.point)
    report = run_scenario(scenario, seed=args.seed, degree_bound=args.degree_bound)
    _emit(report, args.json)
    return _exit_for(report)


def _cmd_galois_extend(args) -> int:
    scenario = _scenario_for_file(args.file, args.point)
    if not scenario.generators:
        print("input error: the file supplies no generators", file=sys.stderr)
        return EXIT_INPUT
    if not (0 <= args.generator < len(scenario.generators)):
        print(f"input error: generator index {args.generator} out of range", file=sys.stderr)
        return EXIT_INPUT
    gen = scenario.generators[args.generator]
    C = scenario.curve
    if C.param is None:
        print("input error: extension verdicts need a parametrization", file=sys.stderr)
        return EXIT_INPUT
    certificate = deck_group_from_candidates(C.param, scenario.point, [gen])
    if certificate.verdict != "galois":
        report = {"galois": certificate.verdict, "method": certificate.method}
        _emit(report, args.json)
        return EXIT_UNDETERMINED if certificate.verdict == "undetermined" else EXIT_FAILED
    chain = reduction_chain(C, scenario.chain_steps)[0] if scenario.chain_steps else None
    _, entries = extension_entries(C, scenario.point, certificate, chain, args.degree_bound, args.seed, gen)
    _emit({"galois": True, "group_order": len(certificate.group), "extensions": entries}, args.json)
    if any(e["verdict"] == "undetermined" for e in entries):
        return EXIT_UNDETERMINED
    return EXIT_OK


def _cmd_cremona_reduce(args) -> int:
    scenario = _scenario_for_file(args.file)
    C = scenario.curve
    report = {
        "degree": C.degree,
        "line_equivalence": line_equivalence_decision(C) if C.param is not None else "unknown",
    }
    mults = []
    if scenario.chain_steps:
        chain, report["chain_stages"] = reduction_chain(C, scenario.chain_steps)
        for step, stage in zip(chain.steps, chain.stages):
            if step.kind == "std_quadratic_at":
                mults = [multiplicity_implicit(stage, p) for p in step.points]
    pairing = kodaira_pairing(C.degree, mults)
    report["kodaira_pairing"] = pairing.pairing
    report["per_point_coefficients"] = list(pairing.per_point)
    report["line_equivalence_guaranteed"] = pairing.line_equivalence_guaranteed
    _emit(report, args.json)
    return EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
