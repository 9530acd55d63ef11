"""Seeded workload inputs with answers known by construction.

Nothing here imports planegalois: the program only ever sees the argument
vectors, conjugation matrices and scenario files generated below, and the
answers are derived from how each input was built, never from running the
program.  The same seed always yields byte-identical inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BUILTINS = ("cubic-omega", "cubic-char3", "quartic-i", "quintic-zeta5")
SUBCOMMANDS = ("curve info", "galois test", "galois extend", "cremona reduce", "verify")

# Extension verdicts of the four worked scenarios, by element label ("*" is
# every other element).  Conjugation must leave them unchanged.
BUILTIN_ANSWERS = {
    "cubic-omega": {"degree": 3, "group_order": 3, "verdicts": {"*": "jonquieres"}},
    "cubic-char3": {"degree": 3, "group_order": 3, "verdicts": {"*": "jonquieres"}},
    "quartic-i": {
        "degree": 4,
        "group_order": 4,
        "verdicts": {"identity": "jonquieres", "generator_squared": "jonquieres", "*": "cremona_only"},
    },
    "quintic-zeta5": {"degree": 7, "group_order": 5, "verdicts": {"identity": "jonquieres", "*": "none_found"}},
}

# Conjugations per built-in in one `conjugated` pass.  The quintic and the
# quartic dominate the pass, so they appear once.  With these counts the
# median item lies between the two cheapest Q(zeta_3) cubics and the 90th
# percentile between the quartic and the quintic: items whose cost a sign
# flip does not change, unlike the F_3 cubics, where -1 = 2.
CONJUGATIONS = {"cubic-omega": 4, "cubic-char3": 4, "quartic-i": 1, "quintic-zeta5": 1}

# Classes of generated files.  The census classes are inputs that the
# pipeline cannot yet handle (a traceback or a wrong exit code); they are run
# and reported beside the workload, not as part of it.
FILE_CLASSES = {
    # class: (files per seed, census?)
    "kummer": (65, False),
    "quadratic": (48, False),
    "deck": (4, False),
    "malformed": (30, False),
    "census-char3-param": (2, True),
    "census-small-prime-param": (2, True),
    "census-line": (2, True),
    "census-nonreduced": (2, True),
    "census-bad-field": (2, True),
}

# Kummer cubics X^3 + G(Y,Z) are Galois from [1:0:0] iff -3 is a square in
# the field: over Q(zeta_n) iff 3 | n, over F_p iff p = 1 mod 3.
KUMMER_FIELDS = (
    ("rational", 0),
    ("cyclotomic", 3),
    ("cyclotomic", 6),
    ("cyclotomic", 12),
    ("cyclotomic", 4),
    ("cyclotomic", 5),
    ("cyclotomic", 8),
    ("prime", 7),
    ("prime", 13),
    ("prime", 19),
    ("prime", 5),
    ("prime", 11),
    ("prime", 17),
)
QUADRATIC_FIELDS = (("rational", 0), ("cyclotomic", 3), ("cyclotomic", 5), ("prime", 3), ("prime", 7), ("prime", 11))
# (field, order n of the deck generator); the field holds a primitive n-th root.
DECK_FIELDS = ((("cyclotomic", 3), 3), (("prime", 7), 3), (("prime", 13), 4), (("prime", 31), 5))
# Prime fields smaller than the pipeline's interpolation needs.
SMALL_PRIME_DECK_FIELDS = ((("prime", 5), 4), (("prime", 11), 5))


@dataclass(frozen=True)
class Expect:
    """Known answer for one program call.

    `exit` is 0 for a well-formed input and 2 for one the CLI must reject.
    For exit 0, the decided fields below must match when the report has them.
    """

    exit: int
    galois: Optional[bool] = None
    degree: Optional[int] = None
    group_order: Optional[int] = None
    verdicts: Optional[Dict[str, str]] = None


@dataclass(frozen=True)
class Item:
    """One call into the program: a CLI argument vector or a conjugation."""

    label: str
    expect: Expect
    argv: Tuple[str, ...] = ()
    builtin: str = ""
    matrix: Tuple[Tuple[int, ...], ...] = ()


@dataclass
class FileCase:
    klass: str
    text: str
    expects: Dict[str, Expect]


# -- built-ins and conjugations -------------------------------------------------


def builtin_items(seed: int) -> List[Item]:
    """`verify <name> --json` for the four built-ins, in a seeded order."""
    items = [
        Item(f"builtin/{name}", _builtin_expect(name), argv=("verify", name, "--json"))
        for name in BUILTINS
    ]
    random.Random(seed).shuffle(items)
    return items


def _builtin_expect(name: str) -> Expect:
    a = BUILTIN_ANSWERS[name]
    return Expect(0, galois=True, degree=a["degree"], group_order=a["group_order"], verdicts=a["verdicts"])


def base_matrices(name: str, count: int) -> List[List[List[int]]]:
    """The first `count` invertible draws of acceptance criterion 7 for `name`
    (entries in [-2, 2], reduced mod p over F_p)."""
    p = 3 if name == "cubic-char3" else 0
    rng = random.Random(900 + len(name))
    out = []
    while len(out) < count:
        M = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if p:
            M = [[x % p for x in row] for row in M]
        det = _det3(M)
        if det % p if p else det:
            out.append(M)
    return out


def conjugated_items(seed: int) -> List[Item]:
    """Each built-in moved by criterion 7's base matrices, each left-multiplied
    by a seed-drawn diagonal sign matrix.

    In characteristic 0 a sign change of the target coordinates keeps the
    coefficient sizes, so the cost of those items does not depend on the
    seed; a fresh [-2, 2] draw varies a conjugated quintic's cost twofold.
    """
    rng = random.Random(seed)
    items = []
    for name in BUILTINS:
        for M in base_matrices(name, CONJUGATIONS[name]):
            signs = [rng.choice((1, -1)) for _ in range(3)]
            moved = tuple(tuple(s * x for x in row) for s, row in zip(signs, M))
            items.append(Item(f"conjugated/{name}", _builtin_expect(name), builtin=name, matrix=moved))
    rng.shuffle(items)
    return items


def _det3(M) -> int:
    (a, b, c), (d, e, f), (g, h, i) = M
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# -- generated scenario files ------------------------------------------------------


def file_cases(seed: int, census: bool = False) -> List[FileCase]:
    """The seeded scenario files of the workload (or of the census)."""
    makers = {
        "kummer": _kummer,
        "quadratic": _quadratic,
        "deck": _deck,
        "malformed": _malformed,
        "census-char3-param": _char3_param,
        "census-small-prime-param": _small_prime_deck,
        "census-line": _line_through_center,
        "census-nonreduced": _nonreduced,
        "census-bad-field": _bad_field,
    }
    cases = []
    for klass, (count, is_census) in FILE_CLASSES.items():
        if is_census != census:
            continue
        rng = random.Random(f"{seed}/{klass}")
        cases.extend(makers[klass](rng, i) for i in range(count))
    return cases


def write_files(cases: List[FileCase], directory: str) -> List[Item]:
    """Write each case to `directory` and return one item per subcommand."""
    items = []
    for index, case in enumerate(cases):
        path = os.path.join(directory, f"{index:04d}-{case.klass}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(case.text)
        for sub in SUBCOMMANDS:
            argv = tuple(sub.split()) + (path,)
            if sub in ("galois test", "galois extend"):
                argv += ("--point", "1,0,0")
            items.append(Item(f"{case.klass}/{sub.replace(' ', '-')}", case.expects[sub], argv=argv + ("--json",)))
    return items


def _scenario_text(field: dict, curve: dict, generators=None) -> str:
    data = {"field": field, "curve": curve, "point": ["1", "0", "0"]}
    if generators:
        data["generators"] = generators
    return json.dumps(data, sort_keys=True)


def _field_json(kind: str, n: int) -> dict:
    if kind == "rational":
        return {"kind": "rational"}
    if kind == "cyclotomic":
        return {"kind": "cyclotomic", "n": n}
    return {"kind": "prime", "p": n}


def _implicit_expects(degree: int, galois: bool) -> Dict[str, Expect]:
    """Implicit-only curves from [1:0:0]: `galois extend` needs generators."""
    decided = Expect(0, galois=galois, degree=degree)
    return {
        "curve info": Expect(0, degree=degree),
        "galois test": decided,
        "galois extend": Expect(2),
        "cremona reduce": Expect(0, degree=degree),
        "verify": decided,
    }


def _kummer(rng: random.Random, i: int) -> FileCase:
    """X^3 + G(Y, Z) with G squarefree, so the cubic is smooth."""
    kind, n = KUMMER_FIELDS[i % len(KUMMER_FIELDS)]
    p = n if kind == "prime" else 0
    shape = random.Random(f"kummer/{i}")
    while True:
        a, b, c, d = (_coefficient(shape, rng, p) for _ in range(4))
        disc = b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
        if (disc % p if p else disc) != 0:
            break
    G = {(0, 3, 0): a, (0, 2, 1): b, (0, 1, 2): c, (0, 0, 3): d}
    text = _scenario_text(_field_json(kind, n), {"implicit": render({(3, 0, 0): 1, **G}, "XYZ")})
    return FileCase("kummer", text, _implicit_expects(3, minus_three_is_square(kind, n)))


def minus_three_is_square(kind: str, n: int) -> bool:
    if kind == "rational":
        return False
    if kind == "cyclotomic":
        return n % 3 == 0
    return n % 3 == 1


def _quadratic(rng: random.Random, i: int) -> FileCase:
    """a*Z^(d-2)*X^2 + Y*B1*X + Y*C1: Eisenstein at Y, so irreducible, and of
    degree 2 in X, hence Galois from [1:0:0] in odd characteristic."""
    kind, n = QUADRATIC_FIELDS[i % len(QUADRATIC_FIELDS)]
    p = n if kind == "prime" else 0
    d = 2 + i % 3
    shape = random.Random(f"quadratic/{i}")
    poly = {(2, 0, d - 2): _coefficient(shape, rng, p)}
    for j in range(d - 1):  # Y * B1, B1 of degree d - 2
        poly[(1, 1 + j, d - 2 - j)] = _coefficient(shape, rng, p)
    for j in range(d):  # Y * C1, C1 of degree d - 1, so with Y^(d-1) and Z^(d-1) terms
        poly[(0, 1 + j, d - 1 - j)] = _coefficient(shape, rng, p)
    text = _scenario_text(_field_json(kind, n), {"implicit": render(poly, "XYZ")})
    return FileCase("quadratic", text, _implicit_expects(d, True))


def _deck(rng: random.Random, i: int, fields=DECK_FIELDS, klass: str = "deck") -> FileCase:
    """phi = (f1, u^n, v^n) carrying the deck generator u -> zeta*u.  f1 has a
    u*v^(n-1) term, which no power of the generator fixes, so phi is
    birational: a curve of degree n, Galois of degree n from [1:0:0]."""
    (kind, q), n = fields[i % len(fields)]
    p = q if kind == "prime" else 0
    shape = random.Random(f"{klass}/{i}")
    f1 = {(k, n - k): _coefficient(shape, rng, p) for k in range(n + 1)}
    forms = [render(f1, "uv"), f"u^{n}", f"v^{n}"]
    root = "z" if kind == "cyclotomic" else str(primitive_root_of_unity(n, p))
    text = _scenario_text(_field_json(kind, q), {"param": forms}, [[[root, "0"], ["0", "1"]]])
    return FileCase(klass, text, _param_expects(n, n))


def _param_expects(degree: int, order: int) -> Dict[str, Expect]:
    decided = Expect(0, galois=True, degree=degree, group_order=order)
    return {
        "curve info": Expect(0, degree=degree),
        "galois test": decided,
        "galois extend": Expect(0, galois=True, group_order=order),
        "cremona reduce": Expect(0, degree=degree),
        "verify": decided,
    }


def _small_prime_deck(rng: random.Random, i: int) -> FileCase:
    return _deck(rng, i, SMALL_PRIME_DECK_FIELDS, "census-small-prime-param")


def _coefficient(shape: random.Random, rng: random.Random, p: int) -> int:
    """A coefficient in [-3, 3], nonzero in characteristic p.  Its size comes
    from `shape`, which depends only on the file's class and index, and its
    sign from the seed: every seed gets files with the same monomials and
    coefficient sizes, so the cost of a pass does not depend on the seed."""
    return rng.choice((1, -1)) * shape.choice([x for x in (1, 2, 3) if not p or x % p])


def primitive_root_of_unity(n: int, p: int) -> int:
    """Smallest r in F_p of multiplicative order exactly n (n | p - 1)."""
    for r in range(2, p):
        if pow(r, n, p) == 1 and all(pow(r, k, p) != 1 for k in range(1, n)):
            return r
    raise ValueError(f"F_{p} has no primitive {n}-th root of unity")


# Each entry breaks one rule of the scenario-file format; every subcommand
# must reject it with exit code 2.
_MALFORMED = (
    lambda rng: '{"field": {"kind": "rational"}, "curve": {"implicit": "X^3 + Y^3',
    lambda rng: json.dumps({"field": {"kind": "rational"}, "point": ["1", "0", "0"]}),
    lambda rng: json.dumps({"field": {"kind": "real"}, "curve": {"implicit": "X^2 - Y*Z"}, "point": ["1", "0", "0"]}),
    lambda rng: _scenario_text({"kind": "rational"}, {"implicit": f"{rng.randint(2, 9)}X^3 + Y^3 + Z^3"}),
    lambda rng: _scenario_text({"kind": "rational"}, {"implicit": f"X^3 + {rng.randint(1, 9)}*Y^2 + Z^3"}),
    lambda rng: _scenario_text({"kind": "rational"}, {"implicit": "0"}),
    lambda rng: _scenario_text({"kind": "rational"}, {"param": ["u^2", f"{rng.randint(1, 9)}*u*v"]}),
    lambda rng: json.dumps(
        {"field": {"kind": "rational"}, "curve": {"implicit": "X^2 - Y*Z"}, "point": ["1", str(rng.randint(0, 9))]}
    ),
    lambda rng: _scenario_text(
        {"kind": "cyclotomic", "n": 3}, {"param": ["u*v^2", "u^3", "v^3"]}, [[["0", "0"], ["0", str(rng.randint(0, 9))]]]
    ),
    lambda rng: _scenario_text({"kind": "rational"}, {"implicit": f"X^3 + Y^3 - {rng.randint(1, 9)}*Z^3 + W"}),
)


def _malformed(rng: random.Random, i: int) -> FileCase:
    text = _MALFORMED[i % len(_MALFORMED)](rng)
    return FileCase("malformed", text, {sub: Expect(2) for sub in SUBCOMMANDS})


def _char3_param(rng: random.Random, i: int) -> FileCase:
    """Param-only cubics over F_3 with psi = [u^3 : u^2*v - v^3] and the deck
    generator v -> u + v.  f1 has a u*v^2 term, so it is not a polynomial in
    s^3 - s (s = v/u) and phi is birational: Galois of degree 3."""
    f1 = {(3 - k, k): rng.randint(0, 2) for k in range(4)}
    f1[(1, 2)] = rng.choice((1, 2))
    forms = [render(f1, "uv"), "u^3", "u^2*v - v^3"]
    text = _scenario_text({"kind": "prime", "p": 3}, {"param": forms}, [[["1", "0"], ["1", "1"]]])
    return FileCase("census-char3-param", text, _param_expects(3, 3))


def _degenerate_expects(degree: int) -> Dict[str, Expect]:
    """The curve is fine to describe, but the projection from [1:0:0] is
    degenerate, which the Galois subcommands must reject as input."""
    return {
        "curve info": Expect(0, degree=degree),
        "galois test": Expect(2),
        "galois extend": Expect(2),
        "cremona reduce": Expect(0, degree=degree),
        "verify": Expect(2),
    }


def _line_through_center(rng: random.Random, i: int) -> FileCase:
    text = _scenario_text({"kind": "rational"}, {"implicit": render({(0, 1, 0): 1, (0, 0, 1): rng.randint(1, 9)}, "XYZ")})
    return FileCase("census-line", text, _degenerate_expects(1))


def _nonreduced(rng: random.Random, i: int) -> FileCase:
    """(X - a*Y)^2 * (X - b*Z): a double component, so the fiber polynomial
    is inseparable over k(y)."""
    a, b = rng.randint(1, 5), rng.randint(1, 5)
    text = _scenario_text({"kind": "rational"}, {"implicit": f"(X - {a}*Y)^2*(X - {b}*Z)"})
    return FileCase("census-nonreduced", text, _degenerate_expects(3))


def _bad_field(rng: random.Random, i: int) -> FileCase:
    """Field descriptors outside the supported range."""
    bad = ({"kind": "cyclotomic", "n": rng.choice((1, 2, 65, 100))}, {"kind": "prime", "p": rng.choice((1, 9, 15, 21))})
    text = _scenario_text(bad[i % 2], {"implicit": "X^2 - Y*Z"})
    return FileCase("census-bad-field", text, {sub: Expect(2) for sub in SUBCOMMANDS})


# -- rendering --------------------------------------------------------------------


def render(poly: Dict[Tuple[int, ...], int], names: str) -> str:
    """Integer-coefficient polynomial in the scenario-file grammar."""
    parts = []
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        if c == 0:
            continue
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)
        body = mono if abs(c) == 1 and mono else (f"{abs(c)}*{mono}" if mono else str(abs(c)))
        if parts:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return "".join(parts) or "0"


# -- known-answer classification ------------------------------------------------------


def classify(item: Item, code: Optional[int], report: Optional[dict], error: str = "") -> Tuple[str, str]:
    """('ok' | 'undetermined' | 'failed', reason) for one program call.

    Failed: it raised, exited with an unexpected code, or gave a decided
    answer that contradicts the known one.  Undetermined: it declined to
    decide (exit 3) without contradicting anything.
    """
    if error:
        return "failed", error
    want = item.expect
    if want.exit == 2 or code == 2:
        return ("ok", "") if code == want.exit else ("failed", f"exit {code}, expected {want.exit}")
    if code not in (0, 3):
        return "failed", f"exit {code}, expected 0"
    if not isinstance(report, dict):
        return "failed", "no JSON report"
    wrong = _contradictions(want, report)
    if wrong:
        return "failed", wrong
    if code == 3 or report.get("galois") == "undetermined":
        return "undetermined", "exit 3" if code == 3 else "galois undetermined"
    if report.get("status", "verified") != "verified":
        return "failed", f"status {report.get('status')}"
    return "ok", ""


def _contradictions(want: Expect, report: dict) -> str:
    found = []
    galois = report.get("galois")
    if want.galois is not None and isinstance(galois, bool) and galois != want.galois:
        found.append(f"galois {galois}, expected {want.galois}")
    degree = report.get("curve_degree", report.get("degree"))
    if want.degree is not None and degree != want.degree:
        found.append(f"degree {degree}, expected {want.degree}")
    order = report.get("group_order")
    if want.group_order is not None and order is not None and order != want.group_order:
        found.append(f"group order {order}, expected {want.group_order}")
    if want.verdicts is not None:
        entries = report.get("extensions")
        if not entries:
            found.append("no extension verdicts")
        for entry in entries or ():
            expected = want.verdicts.get(entry["label"], want.verdicts["*"])
            if entry["verdict"] not in (expected, "undetermined"):
                found.append(f"{entry['label']} {entry['verdict']}, expected {expected}")
    return "; ".join(found)
