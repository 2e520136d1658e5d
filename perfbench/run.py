#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
atum library from src/) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, checks its correctness report,
prints a human-readable table and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics.

Workloads: broadcast, partition_heal, churn, smr_pipeline. --trace 0
reports the end-to-end metrics (measured untraced); --trace 1 reports the
per-layer metrics and writes the run's host-time spans as Chrome trace
JSON under <build>/perfbench/traces/. The result line holds exactly the
metrics BENCHMARK.json lists for that mode, in their units; the table
also prints the workload's other metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("broadcast", "partition_heal", "churn", "smr_pipeline")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "perfbench"
MANIFEST = ROOT / "BENCHMARK.json"


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build(bdir: Path) -> bool:
    """Configures and builds the package (both no-ops when up to date).

    Build output goes to stderr, so stdout stays the benchmark's report.
    """
    bdir.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "-S", str(PKG), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bdir), "-j", BUILD_JOBS]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_binary(cmd) -> subprocess.CompletedProcess:
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def binary_id(binary: Path) -> str:
    """Identity of the code being measured: a hash of the benchmark binary."""
    h = hashlib.sha256()
    with binary.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_determinism(bdir: Path, code_id: str, result: dict) -> list:
    """Same-seed runs of the same build must give identical sim-clock metrics.

    Every untraced run records its sim-clock metrics per (build, workload,
    seed, seconds); a later run with the same key must reproduce them
    exactly. The build is the hash of the binary, so a change to the code
    starts a fresh record instead of being taken for nondeterminism. (A
    traced run also compares its own untraced and traced passes.)
    """
    key = f"{code_id}-{result['workload']}-seed{result['seed']}-s{result['seconds']:g}.json"
    path = bdir / "simclock" / key
    mine = {m["name"]: m["value"] for m in result["sim_clock"]}
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):  # first run of this key (or an unreadable record)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(mine, sort_keys=True))
        return []
    diffs = sorted(k for k in set(earlier) | set(mine) if earlier.get(k) != mine.get(k))
    if diffs:
        return [f"sim-clock metrics differ from an earlier same-seed run: {', '.join(diffs)}"]
    return []


def manifest_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    bench = json.loads(MANIFEST.read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def select_metrics(result: dict, units: dict) -> dict:
    """The result line's metrics: every listed metric, in its listed unit.

    Raises ValueError when the run did not produce one of them.
    """
    produced = {m["name"]: m for m in result["metrics"]}
    out = {}
    for name, unit in units.items():
        m = produced.get(name)
        if m is None:
            raise ValueError(f"the run did not report {name}")
        if m["unit"] != unit:
            raise ValueError(f"{name} reported in {m['unit']}, BENCHMARK.json says {unit}")
        out[name] = {"value": m["value"], "unit": unit}
    return out


def print_report(result: dict, violations: list, units: dict) -> None:
    host = result["host"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']:g}"
          f"  trace {result['trace']}")
    print(f"host: {host['cpu_model']}, {host['cores']} cores, {host['compiler']},"
          f" {host['build_type']} [{host['cxx_flags']}]")
    refs = result["ref_s"]
    print(f"reference kernel: {len(refs)} slices, {sum(refs) / len(refs):.4f} s per pass"
          f" (min {min(refs):.4f}, max {max(refs):.4f})")
    print(f"simulator events in the measured run: {result['events']}")
    print(f"operations: attempted {result['attempted']}, failed {result['failed']}")
    print("metrics (* = in the result line):")
    for m in result["metrics"]:
        basis = f"  [{m['basis']}]" if m["basis"] else ""
        mark = "*" if m["name"] in units else " "
        print(f" {mark}{m['name']:<30} {m['value']:>18.6f} {m['unit']:<14}{basis}")
    print("checks: " + ("all passed" if not violations else "FAILED"))
    for v in violations:
        print(f"  - {v}")


def self_test(bdir: Path) -> int:
    if not build(bdir):
        return 1
    return subprocess.run([str(bdir / "perfbench_selftest")]).returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the arithmetic self-test, then exit")
    args = ap.parse_args()

    bdir = build_dir()
    if args.self_test:
        return self_test(bdir)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        units = manifest_units(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"perfbench: cannot read the metric list from {MANIFEST}: {e}")
        return 1
    if not build(bdir):
        return 1

    binary = bdir / "atum_perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = run_binary(cmd)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: atum_perfbench exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log("perfbench: atum_perfbench printed no result")
        return 1

    violations = list(result["violations"])
    if not args.trace:
        violations += check_determinism(bdir, binary_id(binary), result)
    print_report(result, violations, units)
    try:
        metrics = select_metrics(result, units)
    except ValueError as e:
        log(f"perfbench: {e}")
        return 1
    final = {
        "correct": not violations,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
