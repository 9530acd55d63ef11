"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import os
import pathlib
import sys
import tempfile

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Expect, Item  # noqa: E402


@pytest.fixture
def work_dir():
    """A scratch directory inside the checkout, like the worker's."""
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as path:
        yield pathlib.Path(path)


def _written(seed, directory):
    items = workloads.write_files(workloads.file_cases(seed), str(directory))
    blobs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            blobs[name] = fh.read()
    return [(i.label, i.argv[:-2], i.expect) for i in items], blobs


def test_same_seed_gives_identical_inputs(work_dir):
    (work_dir / "a").mkdir()
    (work_dir / "b").mkdir()
    items_a, files_a = _written(7, work_dir / "a")
    items_b, files_b = _written(7, work_dir / "b")
    assert files_a == files_b
    assert [(label, expect) for label, _, expect in items_a] == [(label, expect) for label, _, expect in items_b]
    assert workloads.file_cases(7, census=True) == workloads.file_cases(7, census=True)
    assert workloads.conjugated_items(7) == workloads.conjugated_items(7)
    assert workloads.builtin_items(7) == workloads.builtin_items(7)
    assert [c.text for c in workloads.file_cases(8)] != [c.text for c in workloads.file_cases(7)]


def test_conjugations_are_signed_criterion7_matrices():
    def signed_rows(M, B):
        return all(list(row) in (b_row, [-x for x in b_row]) for row, b_row in zip(M, B))

    for item in workloads.conjugated_items(3):
        bases = workloads.base_matrices(item.builtin, workloads.CONJUGATIONS[item.builtin])
        assert any(signed_rows(item.matrix, B) for B in bases)


def _kummer_case(kind, n):
    index = workloads.KUMMER_FIELDS.index((kind, n))
    return workloads._kummer(workloads.random.Random(1), index)


def test_kummer_labels():
    assert _kummer_case("cyclotomic", 3).expects["verify"].galois is True
    assert _kummer_case("rational", 0).expects["verify"].galois is False
    assert _kummer_case("prime", 7).expects["galois test"].galois is True
    assert _kummer_case("prime", 5).expects["galois test"].galois is False
    assert _kummer_case("cyclotomic", 4).expects["verify"].galois is False


def _run_file(work_dir, case, sub):
    program = worker.Program()
    path = work_dir / "case.json"
    path.write_text(case.text)
    argv = sub.split() + [str(path)] + (["--point", "1,0,0"] if sub.startswith("galois") else []) + ["--json"]
    code, text = program.run_cli(argv)
    report = json.loads(text) if code != 2 else None
    return workloads.classify(Item("t", case.expects[sub], argv=tuple(argv)), code, report)


def test_kummer_answers_match_the_program(work_dir):
    assert json.loads(worker.Program().run_cli(["verify", "cubic-char3", "--json"])[1])["galois"] is True
    for kind, n in (("cyclotomic", 3), ("rational", 0), ("prime", 7), ("prime", 11)):
        assert _run_file(work_dir, _kummer_case(kind, n), "verify") == ("ok", "")


@pytest.mark.parametrize("klass", ["quadratic", "malformed", "deck"])
def test_file_classes_match_the_program(work_dir, klass):
    cases = [c for c in workloads.file_cases(5) if c.klass == klass][:3]
    for case in cases:
        for sub in ("curve info", "galois test", "verify"):
            assert _run_file(work_dir, case, sub)[0] == "ok", (case.text, sub)


def test_census_char3_param_file_is_galois_by_construction():
    case = workloads.file_cases(1, census=True)[0]
    assert case.klass == "census-char3-param"
    assert case.expects["verify"] == Expect(0, galois=True, degree=3, group_order=3)


def test_classify():
    item = Item("t", Expect(0, galois=True, degree=3))
    assert workloads.classify(item, None, None, "raised ValueError: x") == ("failed", "raised ValueError: x")
    assert workloads.classify(item, 0, {"galois": True, "curve_degree": 3, "status": "verified"}) == ("ok", "")
    assert workloads.classify(item, 3, {"galois": "undetermined", "curve_degree": 3})[0] == "undetermined"
    assert workloads.classify(item, 0, {"galois": False, "curve_degree": 3})[0] == "failed"
    assert workloads.classify(item, 2, None)[0] == "failed"
    assert workloads.classify(Item("t", Expect(2)), 2, None) == ("ok", "")
    assert workloads.classify(Item("t", Expect(2)), 0, {})[0] == "failed"


def test_self_times_on_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # 0.5 s of element time sits directly in root and 0.25 s in c.
    spans = [
        (3, 2, "galois.c", 2.0, 3.0, 0.25),
        (2, 1, "curves.a", 1.0, 4.0, 0.0),
        (4, 1, "linalg.b", 5.0, 9.0, 0.0),
        (1, 0, "cli.root", 0.0, 10.0, 0.5),
    ]
    assert tracing.self_times(spans) == {1: 2.5, 2: 2.0, 3: 0.75, 4: 4.0}
    per_module = tracing.module_self(spans, {"fields": 0.75})
    assert per_module["cli"] == 2.5 and per_module["curves"] == 2.0 and per_module["linalg"] == 4.0
    assert sum(per_module.values()) == tracing.root_time(spans) == 10.0
    assert tracing.group_stats(spans + [(5, 3, "curves.a", 2.2, 2.4, 0.0)], ["curves.a"]) == (2, 3.0)


def test_wrappers_are_removed_after_tracing():
    import planegalois
    from planegalois import cli, curves, fields, linalg, polynomials, scenarios

    bindings = {
        (scenarios, "run_scenario"): scenarios.run_scenario,
        (cli, "run_scenario"): cli.run_scenario,
        (planegalois, "run_scenario"): planegalois.run_scenario,
        (curves, "sylvester_det"): curves.sylvester_det,
        (linalg, "rref"): linalg.rref,
        (fields.FieldElement, "__mul__"): fields.FieldElement.__dict__["__mul__"],
        (polynomials.RatFunc, "__init__"): polynomials.RatFunc.__dict__["__init__"],
    }
    program = worker.Program()
    plain = program.run_cli(["verify", "cubic-char3", "--json"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run_scenario is not bindings[(cli, "run_scenario")]
        assert cli.run_scenario.__wrapped__ is bindings[(cli, "run_scenario")]
        traced = program.run_cli(["verify", "cubic-char3", "--json"])
    finally:
        tracer.uninstall()
    assert traced == plain
    assert any(name == "scenarios.run_scenario.cubic-char3" for _, _, name, *_ in tracer.spans)
    assert tracer.counters["fields.mul.calls"] > 0
    for (holder, attr), original in bindings.items():
        assert vars(holder)[attr] is original, attr
