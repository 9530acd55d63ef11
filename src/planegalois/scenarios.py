"""Built-in worked scenarios, user scenario files, and the verification runner.

A scenario bundles a curve, a projection center, candidate generators, an
optional reduction chain, and the expected verdicts; running one produces a
deterministic report whose checks drive the CLI exit code.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from .cremona import (
    ChainStep,
    ReductionChain,
    kodaira_pairing,
    line_equivalence_decision,
)
from .curves import (
    CURVE_VARS,
    PARAM_VARS,
    Parametrization,
    PlaneCurve,
    ProjPoint,
    curve_from_parametrization,
    has_point_of_multiplicity_ge,
    multiplicity_implicit,
    multiplicity_param,
    parametrization_from_affine,
)
from .fields import Field, FieldDescriptor, FieldElement, make_field
from .galois import (
    deck_group_from_candidates,
    extension_verdict,
    galois_test_low_degree,
    project_param,
    projection_model,
)
from .linalg import mat_det, mat_inv
from .maps import LineMobius, PlaneRationalMap, proportional_eq
from .parsing import ParseError, parse_poly, render_poly


class ScenarioError(ValueError):
    """Scenario file or registry validation failure."""


class Scenario:
    """A named verification problem with optional expected verdicts."""

    def __init__(
        self,
        name: str,
        field: Field,
        curve: PlaneCurve,
        point: ProjPoint,
        generators: Sequence[LineMobius],
        expected: Optional[dict] = None,
        chain_steps: Optional[Sequence[ChainStep]] = None,
        notes: str = "",
    ):
        self.name = name
        self.field = field
        self.curve = curve
        self.point = point
        self.generators = list(generators)
        self.expected = expected or {}
        self.chain_steps = list(chain_steps) if chain_steps else None
        self.notes = notes


def field_from_json(data: dict) -> Field:
    kind = data.get("kind")
    try:
        if kind == "rational":
            return make_field(FieldDescriptor.rational())
        if kind == "cyclotomic":
            return make_field(FieldDescriptor.cyclotomic(int(data["n"])))
        if kind == "prime":
            return make_field(FieldDescriptor.prime(int(data["p"])))
    except KeyError as exc:
        raise ScenarioError(f"{kind} field needs an entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid {kind} field: {exc}") from exc
    raise ScenarioError(f"unknown field kind {kind!r}")


def field_to_json(field: Field) -> dict:
    d = field.descriptor
    if d.kind == "rational":
        return {"kind": "rational"}
    if d.kind == "cyclotomic":
        return {"kind": "cyclotomic", "n": d.n}
    return {"kind": "prime", "p": d.p}


def point_from_json(field: Field, coords: Sequence) -> ProjPoint:
    if len(coords) != 3:
        raise ScenarioError("a point needs three coordinates")
    try:
        return ProjPoint(field, [field.parse(str(c)) for c in coords])
    except ValueError as exc:
        raise ScenarioError(f"not a projective point: {exc}") from exc


def mobius_from_json(field: Field, rows: Sequence) -> LineMobius:
    try:
        matrix = tuple(tuple(field.parse(str(x)) for x in row) for row in rows)
        return LineMobius(field, matrix)
    except (ValueError, ParseError) as exc:
        raise ScenarioError(f"invalid generator matrix: {exc}") from exc


def matrix_from_json(field: Field, rows: Sequence) -> List[List[FieldElement]]:
    matrix = [[field.parse(str(x)) for x in row] for row in rows]
    if len(matrix) != 3 or any(len(r) != 3 for r in matrix):
        raise ScenarioError("linear maps need 3x3 matrices")
    if mat_det(matrix, field).is_zero():
        raise ScenarioError("matrix is singular")
    return matrix


def chain_steps_from_json(field: Field, data: dict) -> List[ChainStep]:
    steps = []
    for entry in data.get("steps", []):
        if "linear" in entry:
            steps.append(ChainStep.linear(matrix_from_json(field, entry["linear"])))
        elif "std_quadratic_at" in entry:
            pts = [point_from_json(field, p) for p in entry["std_quadratic_at"]]
            if len(pts) != 3:
                raise ScenarioError("std_quadratic_at needs three points")
            steps.append(ChainStep.quadratic_at(*pts))
        else:
            raise ScenarioError(f"unknown chain step {entry!r}")
    return steps


def curve_from_json(field: Field, data: dict) -> PlaneCurve:
    implicit = None
    param = None
    if "implicit" in data:
        try:
            F = parse_poly(data["implicit"], field, CURVE_VARS)
        except ParseError as exc:
            raise ScenarioError(f"implicit form: {exc}") from exc
        if F.is_zero() or not F.is_homogeneous():
            raise ScenarioError("implicit form must be nonzero homogeneous")
        implicit = F.monic()
    if "param" in data:
        comps = data["param"]
        if len(comps) != 3:
            raise ScenarioError("a parametrization needs three components")
        try:
            forms = [parse_poly(c, field, PARAM_VARS) for c in comps]
            param = Parametrization(forms)
        except (ParseError, ValueError) as exc:
            raise ScenarioError(f"parametrization: {exc}") from exc
    if implicit is None and param is None:
        raise ScenarioError("curve needs an 'implicit' or a 'param' entry")
    if implicit is not None and param is not None:
        if not implicit.substitute(dict(zip(CURVE_VARS, param.forms))).is_zero():
            raise ScenarioError("the implicit form does not vanish on the parametrization")
    return PlaneCurve(field, implicit, param)


def scenario_from_json(data: dict, name: str = "user") -> Scenario:
    if "field" not in data or "curve" not in data:
        raise ScenarioError("scenario file needs 'field' and 'curve' entries")
    field = field_from_json(data["field"])
    curve = curve_from_json(field, data["curve"])
    if "point" not in data:
        raise ScenarioError("scenario file needs a 'point' entry")
    point = point_from_json(field, data["point"])
    generators = [mobius_from_json(field, rows) for rows in data.get("generators", [])]
    chain = chain_steps_from_json(field, data["chain"]) if "chain" in data else None
    return Scenario(
        name,
        field,
        curve,
        point,
        generators,
        expected=data.get("expected"),
        chain_steps=chain,
    )


# -- the built-in registry -----------------------------------------------------


def _cubic_omega() -> Scenario:
    field = make_field(FieldDescriptor.cyclotomic(3))
    phi = Parametrization(
        [
            parse_poly("u*v^2 + u^2*v", field, PARAM_VARS),
            parse_poly("u^3", field, PARAM_VARS),
            parse_poly("v^3", field, PARAM_VARS),
        ]
    )
    curve = curve_from_parametrization(phi)
    point = ProjPoint.from_ints(field, (1, 0, 0))
    omega = field.generator()
    gen = LineMobius.diagonal(field, omega, field.one())
    expected = {
        "curve_degree": 3,
        "extension_degree": 3,
        "multiplicity_center": 0,
        "galois": True,
        "psi": ["u^3", "v^3"],
        "discriminant_num": "-27*y^4 + 54*y^3 - 27*y^2",
        "element_verdicts": {"all": "jonquieres"},
        "jonquieres_map": [
            "(Y - z*Z)*X + Y*Z*(1 - z)",
            "Y*((z - 1)*X + z*Y - Z)",
            "Z*((z - 1)*X + z*Y - Z)",
        ],
    }
    return Scenario("cubic-omega", field, curve, point, [gen], expected)


def _cubic_char3() -> Scenario:
    field = make_field(FieldDescriptor.prime(3))
    phi = Parametrization(
        [
            parse_poly("v^3", field, PARAM_VARS),
            parse_poly("u^3", field, PARAM_VARS),
            parse_poly("u^2*v - v^3", field, PARAM_VARS),
        ]
    )
    F = parse_poly("X^3 - Y^2*X + Z^3", field, CURVE_VARS)
    curve = PlaneCurve(field, F.monic(), phi)
    point = ProjPoint.from_ints(field, (1, 0, 0))
    gen = LineMobius(field, ((field.one(), field.zero()), (field.one(), field.one())))
    expected = {
        "curve_degree": 3,
        "extension_degree": 3,
        "multiplicity_center": 0,
        "galois": True,
        "psi": ["u^3", "u^2*v - v^3"],
        "generator_order": 3,
        "element_verdicts": {"all": "jonquieres"},
        "jonquieres_map": ["X + Y", "Y", "Z"],
        "fixed_equation": True,  # F o J = F exactly
    }
    return Scenario("cubic-char3", field, curve, point, [gen], expected)


def _quartic_i() -> Scenario:
    field = make_field(FieldDescriptor.cyclotomic(8))
    i = field.parse("z^2")
    isqrt2 = field.parse("z + z^3")
    sqrt2 = field.parse("z - z^3")
    phi = parametrization_from_affine(
        [
            parse_poly("t + t^3", field, ("t",)),
            parse_poly("t^4", field, ("t",)),
            parse_poly("1", field, ("t",)),
        ]
    )
    F = parse_poly("X^4 - 4*Z*Y*X^2 - Z*Y^3 + 2*Z^2*Y^2 - Y*Z^3", field, CURVE_VARS)
    curve = PlaneCurve(field, F.monic(), phi)
    point = ProjPoint.from_ints(field, (1, 0, 0))
    gen = LineMobius.diagonal(field, i, field.one())

    # Linear step moving the three singular points to the coordinate points.
    # The published matrix fails verification; the verified correction scales
    # the first column by 2 (see the decisions ledger).
    two = field.from_int(2)
    T_inv = [
        [field.zero(), isqrt2, isqrt2],
        [two, -field.one(), field.one()],
        [two, field.one(), -field.one()],
    ]
    T = mat_inv(T_inv, field)
    # Second linear step: the published matrix is the substitution (inverse
    # direction); its inverse is the pushforward that lands on Y^2 - XZ.
    four_i = field.from_int(4) * i
    M_pub = [
        [four_i, field.zero(), -i],
        [field.zero(), two * sqrt2, field.zero()],
        [field.from_int(8), field.from_int(-6) * sqrt2, two],
    ]
    N = mat_inv(M_pub, field)
    e = [ProjPoint.from_ints(field, tuple(1 if j == k else 0 for j in range(3))) for k in range(3)]
    steps = [ChainStep.linear(T), ChainStep.quadratic_at(*e), ChainStep.linear(N)]

    expected = {
        "curve_degree": 4,
        "extension_degree": 4,
        "multiplicity_center": 0,
        "galois": True,
        "group_order": 4,
        "psi": ["u^4", "v^4"],
        "singular_points": [["0", "1", "1"], ["z + z^3", "-1", "1"], ["z + z^3", "1", "-1"]],
        "singular_multiplicity": 2,
        "mobius_none_at_bound": 3,
        "element_verdicts": {
            "generator": "cremona_only",
            "generator_squared": "jonquieres",
        },
        "stage_equations": [
            "X^2*Y^2 + 6*X^2*Y*Z + X^2*Z^2 + 4*Y^2*Z^2",
            "4*X^2 + Y^2 + 6*Y*Z + Z^2",
            "Y^2 - X*Z",
        ],
        "jonquieres": False,
        "cremona": True,
    }
    return Scenario("quartic-i", field, curve, point, [gen], expected, chain_steps=steps)


def _quintic_zeta5() -> Scenario:
    field = make_field(FieldDescriptor.cyclotomic(5))
    phi = Parametrization(
        [
            parse_poly("u*v^6 - u^7", field, PARAM_VARS),
            parse_poly("u^5*(u^2 + v^2)", field, PARAM_VARS),
            parse_poly("v^5*(u^2 + v^2)", field, PARAM_VARS),
        ]
    )
    curve = curve_from_parametrization(phi)
    point = ProjPoint.from_ints(field, (1, 0, 0))
    gen = LineMobius.diagonal(field, field.generator(), field.one())
    expected = {
        "curve_degree": 7,
        "extension_degree": 5,
        "multiplicity_center": 2,
        "galois": True,
        "group_order": 5,
        "psi": ["u^5", "v^5"],
        "no_point_of_multiplicity": 3,
        "element_verdicts": {"nontrivial": "none_found"},
        "extendable_elements": ["identity"],
        "jonquieres": False,
        "cremona": False,
    }
    return Scenario("quintic-zeta5", field, curve, point, [gen], expected)


_BUILTINS = {
    "cubic-omega": _cubic_omega,
    "cubic-char3": _cubic_char3,
    "quartic-i": _quartic_i,
    "quintic-zeta5": _quintic_zeta5,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def load_scenario(name_or_path: str) -> Scenario:
    """Built-in scenario by name, or a validated scenario from a JSON file."""
    if name_or_path in _BUILTINS:
        return _BUILTINS[name_or_path]()
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"no such scenario or file: {name_or_path} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {name_or_path}: {exc}") from exc
    return scenario_from_json(data, name=name_or_path)


# -- running --------------------------------------------------------------------


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed, detail: str = ""):
        self.name = name
        self.passed = passed  # True | False | "undetermined"
        self.detail = detail

    def as_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _matrix_text(M) -> List[List[str]]:
    return [[str(x) for x in row] for row in M]


def _map_text(J: PlaneRationalMap) -> List[str]:
    return [render_poly(c) for c in J.components]


_GALOIS_REPORT = {"galois": True, "not_galois": False}  # any other verdict reports "undetermined"


def run_scenario(
    scenario: Scenario,
    seed: int = 0,
    degree_bound: Optional[int] = None,
    sqrt_budget=None,
) -> dict:
    """Full verification pipeline; returns a deterministic report dict."""
    checks: List[Check] = []
    field = scenario.field
    C = scenario.curve
    P = scenario.point
    exp = scenario.expected

    report: dict = {
        "scenario": scenario.name,
        "field": field_to_json(field),
        "seed": seed,
    }

    d = C.degree
    m = multiplicity_implicit(C, P)
    n = d - m
    if n == 0:
        raise ScenarioError("the curve is a line through the center: the projection degenerates")
    report["curve_degree"] = d
    report["multiplicity_center"] = m
    report["extension_degree"] = n
    report["degree"] = n  # certificate-schema alias for the extension degree
    report["generators"] = [_matrix_text(g.matrix) for g in scenario.generators]
    if "curve_degree" in exp:
        checks.append(Check("curve degree", d == exp["curve_degree"], f"{d}"))
    if "multiplicity_center" in exp:
        checks.append(Check("multiplicity at center", m == exp["multiplicity_center"], f"{m}"))
    if "extension_degree" in exp:
        checks.append(Check("extension degree", n == exp["extension_degree"], f"{n}"))

    if C.param is not None:
        mp = multiplicity_param(C.param, P, trials=5, seed=seed)
        checks.append(Check("multiplicity oracle agreement at center", mp == m, f"param {mp} vs implicit {m}"))
        if "psi" in exp:
            a, b = project_param(C.param, P)
            want = tuple(parse_poly(t, field, PARAM_VARS) for t in exp["psi"])
            checks.append(
                Check("projection of the parametrization", proportional_eq((a, b), want), f"[{a} : {b}]")
            )

    # Galois decision: deck route when parametrized, low-degree route otherwise.
    certificate = None
    if C.param is not None and scenario.generators:
        certificate = deck_group_from_candidates(C.param, P, scenario.generators)
        report["galois"] = _GALOIS_REPORT.get(certificate.verdict, "undetermined")
        report["galois_method"] = certificate.method
        report["group_order"] = len(certificate.group)
        if "group_order" in exp:
            checks.append(Check("group order", len(certificate.group) == exp["group_order"], f"{len(certificate.group)}"))
        if "generator_order" in exp:
            orders = [g.order() for g in scenario.generators]
            checks.append(Check("generator order", orders == [exp["generator_order"]], f"{orders}"))
    if n <= 3:
        model = projection_model(C, P)
        try:
            low = galois_test_low_degree(model, sqrt_budget=sqrt_budget)
        except ValueError as exc:  # an inseparable fiber polynomial: the curve is not reduced
            raise ScenarioError(f"degenerate projection: {exc}") from exc
        report["low_degree_method"] = low.method
        if certificate is None:
            certificate = low
            report["galois"] = _GALOIS_REPORT.get(low.verdict, "undetermined")
            report["galois_method"] = low.method
        else:
            checks.append(
                Check(
                    "deck and discriminant verdicts agree",
                    certificate.verdict == low.verdict,
                    f"deck {certificate.verdict}, algebraic {low.verdict}",
                )
            )
        if "discriminant_num" in exp and low.details.get("discriminant") is not None:
            disc = low.details["discriminant"]
            want = parse_poly(exp["discriminant_num"], field, ("y",)).to_poly1("y")
            ok = disc.num == want and disc.den.degree() == 0
            checks.append(Check("discriminant equals the stated form", ok, str(exp["discriminant_num"])))
    if "galois" in exp:
        checks.append(Check("Galois verdict", report.get("galois") == exp["galois"], f"{report.get('galois')}"))

    # Singular point bookkeeping.
    if "singular_points" in exp:
        for coords in exp["singular_points"]:
            Q = point_from_json(field, coords)
            mi = multiplicity_implicit(C, Q)
            ok = mi == exp.get("singular_multiplicity", 2)
            detail = f"multiplicity {mi} at {Q}"
            if C.param is not None:
                mpq = multiplicity_param(C.param, Q, trials=5, seed=seed)
                ok = ok and mpq == mi
                detail += f", param method {mpq}"
            checks.append(Check(f"singular point {coords}", ok, detail))
    if "no_point_of_multiplicity" in exp:
        bound = exp["no_point_of_multiplicity"]
        result = has_point_of_multiplicity_ge(C, bound, seed=seed)
        value = result.verdict
        if value is False:
            passed = True
        elif value is True:
            passed = False
        else:
            passed = "undetermined"
        checks.append(
            Check(
                f"no point of multiplicity >= {bound}",
                passed,
                "certified empty" if value is False else str(result),
            )
        )
        report["multiplicity_bound_certificate"] = value is False

    # Reduction chain.
    chain = None
    if scenario.chain_steps:
        chain = ReductionChain(C, scenario.chain_steps)
        stages = [render_poly(s.implicit.monic()) for s in chain.stages[1:]]
        report["chain_stages"] = stages
        if "stage_equations" in exp:
            want = [render_poly(parse_poly(t, field, CURVE_VARS).monic()) for t in exp["stage_equations"]]
            checks.append(Check("reduction chain stages", stages == want, " -> ".join(stages)))
    if "singular_points" in exp:
        mults = [multiplicity_implicit(C, point_from_json(field, c)) for c in exp["singular_points"]]
        report["kodaira_pairing"] = kodaira_pairing(d, mults).pairing
    report["line_equivalence"] = (
        line_equivalence_decision(C) if C.param is not None else "unknown"
    )

    # Per-element extension verdicts.
    if certificate is not None and certificate.verdict == "galois":
        reports = extension_verdict(C, P, certificate, chain=chain, degree_bound=degree_bound, seed=seed)
        gen = scenario.generators[0] if scenario.generators else None
        gen_sq = gen.compose(gen) if gen is not None else None
        extension_entries = []
        verdict_by_element: Dict[str, str] = {}
        extendable = []
        for r in reports:
            if isinstance(r.element, LineMobius):
                label = "identity" if r.element.is_identity() else None
                if label is None and gen is not None and r.element == gen:
                    label = "generator"
                elif label is None and gen_sq is not None and r.element == gen_sq and not gen_sq.is_identity():
                    label = "generator_squared"
                elif label is None:
                    label = f"element_{_matrix_text(r.element.matrix)}"
                element_json = _matrix_text(r.element.matrix)
            else:
                label = str(r.element)
                element_json = label
            verdict_by_element[label] = r.verdict
            entry = {"element": element_json, "label": label, "verdict": r.verdict, "proven": r.proven}
            if r.witness is not None:
                entry["witness"] = _witness_json(r.witness)
            if r.notes:
                entry["notes"] = r.notes
            extension_entries.append(entry)
            if r.verdict in ("jonquieres", "cremona_only", "linear"):
                extendable.append(label)
        report["extensions"] = extension_entries
        report["extendable_elements"] = sorted(extendable)
        report["jonquieres"] = all(r.verdict == "jonquieres" for r in reports)
        report["cremona"] = all(r.verdict in ("jonquieres", "cremona_only", "linear") for r in reports)

        wanted = exp.get("element_verdicts", {})
        if "all" in wanted:
            checks.append(
                Check(
                    f"every element extends as {wanted['all']}",
                    all(v == wanted["all"] for v in verdict_by_element.values()),
                    str(verdict_by_element),
                )
            )
        for label in ("generator", "generator_squared"):
            if label in wanted:
                checks.append(
                    Check(
                        f"{label} verdict",
                        verdict_by_element.get(label) == wanted[label],
                        f"{verdict_by_element.get(label)}",
                    )
                )
        if "nontrivial" in wanted:
            ok = all(
                v == wanted["nontrivial"] for k, v in verdict_by_element.items() if k != "identity"
            )
            checks.append(Check("nontrivial elements verdict", ok, str(verdict_by_element)))
        if "extendable_elements" in exp:
            checks.append(
                Check(
                    "extendable elements",
                    report["extendable_elements"] == sorted(exp["extendable_elements"]),
                    str(report["extendable_elements"]),
                )
            )
        for key in ("jonquieres", "cremona"):
            if key in exp:
                checks.append(Check(f"group extends to {key}", report[key] == exp[key], str(report[key])))

        # Explicit expected maps.
        if "jonquieres_map" in exp:
            J_want = PlaneRationalMap([parse_poly(t, field, CURVE_VARS) for t in exp["jonquieres_map"]])
            J_found = None
            for r in reports:
                if r.verdict == "jonquieres" and r.witness is not None and isinstance(r.witness, tuple):
                    candidate = r.witness[1]
                    if candidate == J_want:
                        J_found = candidate
                        break
            ok = J_found is not None
            detail = "matched the stated map" if ok else "stated map not among witnesses"
            if exp.get("fixed_equation") and ok:
                sub = {v: c for v, c in zip(CURVE_VARS, J_want.components)}
                fixed = C.implicit.substitute(sub) == C.implicit
                ok = ok and fixed
                detail += "; F o J == F" if fixed else "; F o J != F"
            checks.append(Check("stated de Jonquieres map verified", ok, detail))
        if "mobius_none_at_bound" in exp:
            from .galois import mobius_solver, parameter_data

            x_t, sx_t, psi_t = parameter_data(C.param, P, gen)
            at_bound = mobius_solver(x_t, sx_t, psi_t, field, exp["mobius_none_at_bound"])
            checks.append(
                Check(
                    f"mobius solver NONE at degree bound {exp['mobius_none_at_bound']}",
                    at_bound.status in ("none_up_to_bound", "none_proven"),
                    at_bound.status,
                )
            )

    if "galois" not in report:
        report["galois"] = "undetermined"
    report["checks"] = [c.as_json() for c in checks]
    passed = [c for c in checks if c.passed is True]
    undetermined = [c for c in checks if c.passed == "undetermined"]
    failed = [c for c in checks if c.passed is False]
    report["summary"] = {
        "checks": len(checks),
        "passed": len(passed),
        "failed": len(failed),
        "undetermined": len(undetermined),
    }
    if failed:
        report["status"] = "failed"
    elif undetermined or report.get("galois") == "undetermined":
        report["status"] = "undetermined"
    else:
        report["status"] = "verified"
    return report


def _witness_json(witness) -> object:
    from .maps import MobiusOverBase

    if isinstance(witness, tuple):
        return [_witness_json(w) for w in witness]
    if isinstance(witness, MobiusOverBase):
        alpha, beta, gamma, delta = witness.cleared()
        return {
            "mobius_over_base": {
                "alpha": _poly1_text(alpha),
                "beta": _poly1_text(beta),
                "gamma": _poly1_text(gamma),
                "delta": _poly1_text(delta),
            }
        }
    if isinstance(witness, PlaneRationalMap):
        return {"plane_map": _map_text(witness)}
    return {"matrix": _matrix_text(witness)}


def _poly1_text(p, var: str = "y") -> str:
    if p.is_zero():
        return "0"
    mp = p.to_multipoly(p.coeffs[0].field, (var,), var)
    return render_poly(mp)


_CONJUGATION_STABLE_KEYS = (
    "curve_degree",
    "extension_degree",
    "multiplicity_center",
    "galois",
    "group_order",
    "generator_order",
    "element_verdicts",
    "extendable_elements",
    "jonquieres",
    "cremona",
    "no_point_of_multiplicity",
    "singular_multiplicity",
)


def conjugate_scenario(scenario: Scenario, M: Sequence[Sequence[FieldElement]]) -> Scenario:
    """The scenario transported through the linear change of coordinates M.

    The curve and center move; deck candidates act on the parameter line and
    stay put; chart-dependent expectations (psi, discriminant, explicit maps)
    are dropped, coordinate-free verdicts are kept; a reduction chain gains a
    leading step back to the original coordinates.
    """
    from .maps import linear_pushforward
    from .linalg import mat_vec

    field = scenario.field
    _ = scenario.curve.implicit  # materialize once so the pushforward is a cheap substitution
    curve = linear_pushforward(scenario.curve, M)
    point = ProjPoint(field, mat_vec(M, list(scenario.point.coords)))
    expected = {k: v for k, v in scenario.expected.items() if k in _CONJUGATION_STABLE_KEYS}
    if "singular_points" in scenario.expected:
        moved = []
        for coords in scenario.expected["singular_points"]:
            Q = point_from_json(field, coords)
            moved.append([str(c) for c in ProjPoint(field, mat_vec(M, list(Q.coords))).coords])
        expected["singular_points"] = moved
    chain = None
    if scenario.chain_steps:
        chain = [ChainStep.linear(mat_inv(M, field))] + list(scenario.chain_steps)
    return Scenario(
        scenario.name + "-conjugated",
        field,
        curve,
        point,
        scenario.generators,
        expected=expected,
        chain_steps=chain,
    )
