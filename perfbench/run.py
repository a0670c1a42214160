#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and with it the
library sources under src/) into .bench_build/, makes sure a certified
verdict reference exists for the seed, runs the workload, completes its
metrics from BENCHMARK.json (names, order, units) and prints the result as
the last line of stdout.
Exits non-zero, without a result line, when anything is missing or fails to
build; exits 1 after the result line when a verdict was wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# The seed whose verdict references ship in data/; every other seed gets
# its reference from `perfbench oracle` before the measured run.
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")


def build(bench_dir, build_dir):
    if not (bench_dir.parent / "src" / "core" / "pipeline.h").is_file():
        fail("library sources (src/) not found next to perfbench/")
    if not (build_dir / "CMakeCache.txt").is_file():
        r = run(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                BUILD_TIMEOUT_S, stdout=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = run(["cmake", "--build", str(build_dir), "-j", jobs], BUILD_TIMEOUT_S,
            stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def reference_for(binary, bench_dir, work_dir, workload, seed):
    kind = "serve" if workload == "serve_mixed" else "fig4"
    if seed == DEFAULT_SEED:
        return bench_dir / "data" / f"reference_{kind}_seed{seed}.txt"
    path = work_dir / f"reference_{kind}_seed{seed}.txt"
    tmp = path.with_suffix(".tmp")
    r = run([str(binary), "oracle", "--workload", workload, "--seed",
             str(seed), "--out", str(tmp)], RUN_TIMEOUT_S, stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"oracle failed for seed {seed}")
    tmp.replace(path)
    return path


def conform(result, bench_dir, trace):
    """Orders the measured metrics as BENCHMARK.json lists them and gives
    each its unit. A per-layer metric of a layer the workload never calls is
    0; a missing end-to-end metric or one BENCHMARK.json does not list is a
    bug in the benchmark."""
    spec = json.loads((bench_dir.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in wanted}
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        if m["name"] not in got and not trace:
            fail(f"end-to-end metric {m['name']} not measured")
        metrics[m["name"]] = {"value": got.get(m["name"], 0.0),
                              "unit": m["unit"]}
    result["metrics"] = metrics
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["fig4_synth", "fig4_baseline", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench_dir = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "perfbench").resolve()
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    binary = build(bench_dir, build_dir)
    reference = reference_for(binary, bench_dir, work_dir, args.workload,
                              args.seed)
    r = run([str(binary), "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--reference", str(reference),
             "--data", str(bench_dir / "data"), "--work", str(work_dir)],
            RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with {r.returncode}")
    result = conform(json.loads(lines[-1]), bench_dir, args.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and r.returncode == 0 else 1)


if __name__ == "__main__":
    main()
