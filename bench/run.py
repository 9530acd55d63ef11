"""planegalois benchmark.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/run.py --seed S            # every workload, tracing off and on

Run from the repository root.  Each run starts fresh interpreters one after
another (never two at once) with PYTHONPATH=src and a fixed PYTHONHASHSEED:
a few that only time the set-up, then one worker that times closed-loop
passes over the workload and checks every answer.  The last line printed is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3  # fresh-interpreter set-ups per run; the median is reported
WORKER_TIMEOUT = 170  # seconds


class BenchError(RuntimeError):
    pass


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def run_worker(args, env, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    """Commit (when the checkout is a git repository), source digest, Python, nproc."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def run_one(args, bench: dict) -> dict:
    """One measured run of one workload: the result line's object."""
    if not os.path.isfile(os.path.join(SRC, "planegalois", "__init__.py")):
        raise BenchError(f"no planegalois package under {SRC}")
    env = worker_env()
    # Compile the package once, so no timed set-up pays for bytecode.
    subprocess.run([sys.executable, "-c", "import planegalois.cli"], cwd=ROOT, env=env, check=True, timeout=WORKER_TIMEOUT)
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [run_worker(args, env, setup_only=True)["setup_s"] for _ in range(probes)]
    result = run_worker(args, env)
    setups.append(result["setup_s"])
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    raw = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    info = dict(environment(), workload=args.workload, seed=args.seed, trace=args.trace,
                pass_walls=result["pass_walls"], setup_samples=setups)
    print(json.dumps({"info": info}))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    workloads = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", choices=workloads, help="one workload (default: all, traced and untraced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload:
            print(json.dumps(run_one(args, bench)))
            return 0
        summary = {}
        for workload in workloads:
            for trace in (0, 1):
                one = argparse.Namespace(workload=workload, seed=args.seed, seconds=args.seconds, trace=trace)
                result = run_one(one, bench)
                for name, m in result["metrics"].items():
                    print(f"{workload:<11} {name:<52} {m['value']:>14.6g} {m['unit']}")
                summary[f"{workload}/trace{trace}"] = result
        print(json.dumps(summary))
        return 0
    except (BenchError, OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
