"""The paper's theorem for Galois groups of order at most 3, as an oracle.

A Galois point of order 2 or 3 has its whole group in the de Jonquieres
group of the point.  So every element must come back `jonquieres` with an
exactly checked witness and the report `verified`; any other verdict, an
`undetermined` Galois decision or a failed check is a program defect.

Families, each run at [1:0:0] and under two random conjugations, with
curves drawn from a fixed seed:
- Kummer cubics X^3 + G(Y, Z) over fields holding zeta_3;
- curves of degree 3 and 4 with a point of multiplicity d - 2;
- Artin-Schreier cubics X^3 - L(Y, Z)^2 X - G(Y, Z) over F_3;
- param-only curves whose projection from [1:0:0] is t -> t^3, t -> t^2 or
  t -> t^3 - t, given with the deck generator, so that the deck route
  decides.
Characteristic 2 is excluded: its degree-3 test is not implemented yet
(ROADMAP item 4).
"""

import random

import pytest

from planegalois.linalg import mat_det
from planegalois.scenarios import conjugate_scenario, run_scenario, scenario_from_json

FIELDS = {
    "Q": {"kind": "rational"},
    "Z3": {"kind": "cyclotomic", "n": 3},
    "Z5": {"kind": "cyclotomic", "n": 5},
    "Z6": {"kind": "cyclotomic", "n": 6},
    "F3": {"kind": "prime", "p": 3},
    "F7": {"kind": "prime", "p": 7},
    "F11": {"kind": "prime", "p": 11},
    "F13": {"kind": "prime", "p": 13},
}
CUBE_ROOT_OF_UNITY = {"Z3": "z", "Z6": "z^2", "F7": "2", "F13": "3"}


def _form(rng, degree, a="Y", b="Z"):
    """A random binary form of the given degree with a nonzero leading term."""
    coeffs = [rng.choice([1, 2, -1, -2])] + [rng.randint(-3, 3) for _ in range(degree)]
    return " + ".join(f"({c})*{a}^{degree - i}*{b}^{i}" for i, c in enumerate(coeffs) if c)


def _kummer_G(rng):
    """G = Y^3 + c Y Z^2 + e Z^3 (e != 0), never the cube of a linear form, so
    X^3 + G is irreducible."""
    return f"Y^3 + ({rng.randint(-3, 3)})*Y*Z^2 + ({rng.choice([1, 2, -1, -2])})*Z^3"


def _cases():
    rng = random.Random(2024)
    cases = []
    for name in ("Z3", "Z6", "F7", "F13"):
        for i in range(3):
            cases.append((f"kummer-{name}-{i}", name, {"implicit": f"X^3 + {_kummer_G(rng)}"}, None))
        w = CUBE_ROOT_OF_UNITY[name]
        param = [_form(rng, 3, "u", "v"), "u^3", "v^3"]
        cases.append((f"kummer-param-{name}", name, {"param": param}, [[w, "0"], ["0", "1"]]))
    for name in ("Q", "Z5", "F3", "F11"):
        for d in (3, 4):
            implicit = f"({_form(rng, d - 2)})*X^2 + ({_form(rng, d - 1)})*X + {_form(rng, d)}"
            cases.append((f"order2-{name}-d{d}", name, {"implicit": implicit}, None))
        param = [_form(rng, 3, "u", "v"), "u^3 + u^2*v", "u*v^2 + v^3"]  # psi = t^2
        cases.append((f"order2-param-{name}", name, {"param": param}, [["-1", "0"], ["0", "1"]]))
    for i in range(3):
        L = f"Y + ({rng.randint(-1, 1)})*Z"
        cases.append((f"artin-schreier-F3-{i}", "F3", {"implicit": f"X^3 - ({L})^2*X - ({_form(rng, 3)})"}, None))
    param = [_form(rng, 3, "u", "v"), "u^3 - u*v^2", "v^3"]  # psi = t^3 - t
    cases.append(("artin-schreier-param-F3", "F3", {"param": param}, [["1", "1"], ["0", "1"]]))
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_galois_groups_of_order_at_most_3_are_de_jonquieres(case):
    label, name, curve, generator = case
    data = {"field": FIELDS[name], "curve": curve, "point": ["1", "0", "0"]}
    if generator is not None:
        data["generators"] = [generator]
    scenario = scenario_from_json(data, name=label)
    field = scenario.field
    rng = random.Random(label)
    moved = [scenario]
    while len(moved) < 3:
        M = [[field.from_int(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if not mat_det(M, field).is_zero():
            moved.append(conjugate_scenario(scenario, M))
    for index, s in enumerate(moved):
        report = run_scenario(s)
        where = f"{label}, conjugation {index}"
        assert report["extension_degree"] in (2, 3), where
        assert report["galois"] is True and report["status"] == "verified", where
        if generator is not None:
            assert report["galois_method"] == "verified deck group", where
        verdicts = [entry["verdict"] for entry in report["extensions"]]
        assert verdicts == ["jonquieres"] * report["extension_degree"], where
