"""One benchmark run inside a fresh interpreter.

Started by bench/run.py with PYTHONPATH pointing at the checkout's src/ and a
fixed PYTHONHASHSEED:

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

It sets up, runs closed-loop passes over the workload's items one at a time
until the time is spent, checks every answer, and prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("builtins", "conjugated", "files")
STATUS_EXIT = {"verified": 0, "undetermined": 3}


class Program:
    """The planegalois entry points the benchmark drives, imported from src/."""

    def __init__(self):
        import planegalois
        import planegalois.cli
        import planegalois.scenarios

        src = os.path.join(ROOT, "src")
        if not os.path.abspath(planegalois.__file__).startswith(src + os.sep):
            raise RuntimeError(f"planegalois was imported from {planegalois.__file__}, not from {src}")
        self.cli = planegalois.cli
        self.scenarios = planegalois.scenarios

    def run_cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.run_command(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def conjugate(self, base, matrix):
        field = base.field
        return self.scenarios.conjugate_scenario(base, [[field.from_int(x) for x in row] for row in matrix])


class Workload:
    """Inputs of one workload and how to run one of its items."""

    def __init__(self, name: str, seed: int, scratch: str):
        self.name = name
        self.seed = seed
        self.census = []
        if name == "builtins":
            self.items = workloads.builtin_items(seed)
        elif name == "conjugated":
            self.items = workloads.conjugated_items(seed)
        else:
            self.items = workloads.write_files(workloads.file_cases(seed), scratch)
            census_dir = os.path.join(scratch, "census")
            os.mkdir(census_dir)
            self.census = workloads.write_files(workloads.file_cases(seed, census=True), census_dir)
        self.program = None
        self.bases = {}
        self.moved = []

    def setup(self) -> None:
        """Everything the program does before the first timed item."""
        self.program = Program()
        if self.name == "conjugated":
            for item in self.items:
                if item.builtin not in self.bases:
                    self.bases[item.builtin] = self.program.scenarios.load_scenario(item.builtin)
            self.prepare_pass()

    def prepare_pass(self) -> None:
        """Fresh conjugated scenarios, so no pass reuses another's memoized data."""
        if self.name == "conjugated":
            self.moved = [self.program.conjugate(self.bases[i.builtin], i.matrix) for i in self.items]

    def call(self, index: int, items=None):
        """(exit code, output text, report) of one item."""
        item = (items or self.items)[index]
        if item.argv:
            code, text = self.program.run_cli(item.argv)
            report = None
            if code != 2 and text:
                try:
                    report = json.loads(text)
                except ValueError:  # classified as "no JSON report"
                    pass
            return code, text, report
        report = self.program.scenarios.run_scenario(self.moved[index], seed=0)
        return STATUS_EXIT.get(report["status"], 1), None, report


def run_pass(workload: Workload, items=None):
    """Run every item once; returns (wall seconds, per-item records)."""
    items = items or workload.items
    records = []
    started = time.perf_counter()
    for index in range(len(items)):
        t0 = time.perf_counter()
        error = ""
        try:
            code, text, report = workload.call(index, items)
        except Exception as exc:  # a traceback is a failed item, not a crashed benchmark
            code, text, report, error = None, None, None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if text is None and report is not None:
            text = json.dumps(report, sort_keys=True)
        status, reason = workloads.classify(items[index], code, report, error)
        records.append({"seconds": elapsed, "code": code, "text": text, "status": status, "reason": reason})
    return time.perf_counter() - started, records


def timed_passes(workload: Workload, budget: float):
    """Closed loop of passes; another starts only if it should end in budget."""
    passes = []
    started = time.perf_counter()
    while True:
        if passes:
            workload.prepare_pass()
        wall, records = run_pass(workload)
        passes.append((wall, records))
        if time.perf_counter() - started + wall > budget:
            return passes


def report_failures(workload: Workload, items, records, tag: str) -> None:
    for index, (item, rec) in enumerate(zip(items, records)):
        if rec["status"] == "failed":
            print(
                f"{tag} failed: seed={workload.seed} index={index} item={item.label} "
                f"argv={' '.join(item.argv) if item.argv else item.matrix} reason={rec['reason']}",
                file=sys.stderr,
            )


def mismatches(reference, records) -> int:
    return sum((a["code"], a["text"]) != (b["code"], b["text"]) for a, b in zip(reference, records))


def end_to_end(passes, setup_s: float) -> dict:
    """Each item's time is its median over the passes; the item percentiles
    are taken over those, so one slow moment moves one sample, not the tail."""
    walls = [w for w, _ in passes]
    records = [r for _, recs in passes for r in recs]
    per_item = [statistics.median(r["seconds"] for r in recs) for recs in zip(*(recs for _, recs in passes))]
    deciles = statistics.quantiles(per_item, n=10, method="inclusive") if len(per_item) > 1 else per_item * 9
    attempted = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    undetermined = sum(r["status"] == "undetermined" for r in records)
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(walls),
        "item_s_p50": statistics.median(per_item),
        "item_s_p90": deciles[8],
        "ok_ratio": (attempted - failed) / attempted,
        "decided_ratio": (attempted - undetermined) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: tracing.Tracer, traced_wall: float, untraced_wall: float) -> dict:
    spans, c = tracer.spans, tracer.counters

    def stats(*names):
        return tracing.group_stats(spans, names)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for op in ("mul", "add", "inv"):
        m[f"fields.{op}.calls"] = c[f"fields.{op}.calls"]
    m["fields.busy_s"] = tracer.element_self["fields"]
    m["fields.ns_per_op"] = ratio(tracer.element_self["fields"], c["fields.ops"]) * 1e9
    calls, _ = stats("fields.sqrt_in_field")
    m["fields.sqrt_in_field.calls"] = calls
    m["fields.sqrt_in_field.decided_ratio"] = ratio(c["fields.sqrt_in_field.decided"], calls)
    for name in (
        "polynomials.sylvester_det",
        "polynomials.resultant",
        "curves.implicitize",
        "curves.has_point_of_multiplicity_ge",
        "galois.mobius_solver",
        "parsing.parse_poly",
    ):
        m[f"{name}.calls"], m[f"{name}.busy_s"] = stats(name)
    m["curves.has_point_of_multiplicity_ge.certified_ratio"] = ratio(
        c["curves.has_point_of_multiplicity_ge.certified"], m["curves.has_point_of_multiplicity_ge.calls"]
    )
    m["galois.mobius_solver.decided_ratio"] = ratio(c["galois.mobius_solver.decided"], m["galois.mobius_solver.calls"])
    field_calls, field_busy = stats("linalg.rref.field")
    ratfunc_calls, ratfunc_busy = stats("linalg.rref.ratfunc")
    m["linalg.rref.calls"] = field_calls + ratfunc_calls
    m["linalg.rref.cells"] = c["linalg.rref.cells"]
    m["linalg.rref.busy_s.field"] = field_busy
    m["linalg.rref.busy_s.ratfunc"] = ratfunc_busy
    m["linalg.nullspace.kernel_dim"] = c["linalg.nullspace.kernel_dim"]
    for name in ("polynomials.Poly1.gcd", "polynomials.MultiPoly.mul", "polynomials.MultiPoly.substitute"):
        m[f"{name}.calls"] = c[f"{name}.calls"]
        m[f"{name}.busy_s"] = c[f"{name}.busy_s"]
    m["polynomials.RatFunc.reduce.calls"] = c["polynomials.RatFunc.reduce.calls"]
    for name in (
        "galois.deck_group_from_candidates",
        "galois.galois_test_low_degree",
        "galois.linear_extension_solver",
        "galois.extension_verdict",
        "maps.linear_pushforward",
        "maps.std_quadratic_pushforward",
        "cremona.ReductionChain",
        "cremona.ChainTransport",
        "cli.render_report",
    ):
        m[f"{name}.busy_s"] = stats(name)[1]
    m["scenarios.load.busy_s"] = stats("scenarios.load_scenario", "scenarios.scenario_from_json")[1]
    for label in workloads.BUILTINS + ("file",):
        m[f"scenarios.run_scenario.{label}.busy_s"] = stats(f"scenarios.run_scenario.{label}")[1]
    for module, seconds in tracing.module_self(spans, tracer.element_self).items():
        m[f"{module}.self_s"] = seconds
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    m["trace.unaccounted_ratio"] = 1.0 - tracing.root_time(spans) / traced_wall
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time the set-up and stop")
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        workload = Workload(args.workload, args.seed, scratch)
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, args, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload: Workload, args, setup_s: float) -> dict:
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(workload, budget)
    reference = passes[0][1]
    deterministic = all(mismatches(reference, recs) == 0 for _, recs in passes[1:])
    all_records = [r for _, recs in passes for r in recs]
    report_failures(workload, workload.items, reference, args.workload)
    traced_equal = True
    metrics = end_to_end(passes, setup_s)
    if args.trace:
        workload.prepare_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, traced = run_pass(workload)
        finally:
            tracer.uninstall()
        traced_equal = mismatches(reference, traced) == 0
        all_records += traced
        metrics = per_layer(tracer, traced_wall, metrics["pass_s"])
    if workload.census:
        _, census = run_pass(workload, workload.census)
        report_failures(workload, workload.census, census, "census")
        if args.trace:
            metrics["census.failed"] = sum(r["status"] == "failed" for r in census)
            metrics["census.undetermined"] = sum(r["status"] == "undetermined" for r in census)
    elif args.trace:
        metrics["census.failed"] = metrics["census.undetermined"] = 0
    failed = sum(r["status"] == "failed" for r in all_records)
    if not deterministic:
        print("outputs differ between passes", file=sys.stderr)
    if not traced_equal:
        print("traced outputs differ from untraced outputs", file=sys.stderr)
    return {
        "correct": failed == 0 and deterministic and traced_equal,
        "attempted": len(all_records),
        "failed": failed,
        "pass_walls": [wall for wall, _ in passes],
        "setup_s": setup_s,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
