#!/usr/bin/env python3
"""Serve benchmark entry point.

Builds perfbench/serve_bench from this checkout's sources, runs one
workload in a fresh process, checks the result against the values pinned
in perfbench/pins.json, and prints every metric with its unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Run from the repository root:

    python3 perfbench/run.py --workload storm --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke      # every workload, reduced sizes

Exit status: 0 when every check passes, 1 when a check fails, 2 when the
benchmark cannot run (bad arguments, no sources to build, build failure).
The build goes to $CARGO_TARGET_DIR (default .bench_build); full results,
the host fingerprint and the trace spans go to .bench_results/.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["storm", "storm-2t", "paper-scale", "deadline-mix"]
PIN_FIELDS = ["digest", "arrivals", "solved", "failed", "malformed", "shed",
              "memo_hits", "memo_misses", "memo_evictions", "cancelled_attempts"]
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds serve_bench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no library sources to build at {ROOT} (needs CMakeLists.txt and src/)")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp = build_dir / "tmp"  # the compiler's scratch files stay in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "serve_bench", "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return build_dir / "serve_bench"


def host_fingerprint(result):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo", encoding="utf-8"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    build = result.get("build", {})
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "effective_cores": build.get("effective_cores"),
        "compiler": build.get("compiler"),
        "build_type": build.get("build_type"),
        "git_commit": commit,
    }


def pinned(pins, key, result):
    """Pin mismatches of one run; [] when the seed is not pinned."""
    want = pins.get(key)
    if want is None:
        return []
    got = result["pin"]
    return [f"pinned {key}: {f} is {got[f]}, expected {want[f]}"
            for f in PIN_FIELDS if f in want and got[f] != want[f]]


def run_workload(exe, workload, seed, seconds, trace, smoke=False):
    """Runs serve_bench once; returns (result dict, list of check errors)."""
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{'smoke-' if smoke else ''}{workload}-seed{seed}-trace{int(trace)}"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans", str(results / f"{stem}.spans.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"{workload}: no result within {RUN_TIMEOUT_S} s"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return None, [f"{workload}: serve_bench exited {proc.returncode}"]
    result = json.loads(lines[-1])
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
    errors = list(result["errors"])
    errors += pinned(pins, f"{'smoke/' if smoke else ''}{workload}/{seed}", result)
    result["host"] = host_fingerprint(result)
    result["checks"] = errors
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result, errors


def smoke(exe, seed):
    """Every workload at reduced size, traced; exit status is the verdict."""
    digests, failures = {}, 0
    for workload in WORKLOADS:
        result, errors = run_workload(exe, workload, seed, 0, True, smoke=True)
        if result is not None:
            digests[workload] = result["pin"]["digest"]
        status = "ok" if not errors else "FAILED: " + "; ".join(errors)
        print(f"smoke {workload} seed {seed}: {status}")
        failures += bool(errors)
    if digests.get("storm") != digests.get("storm-2t"):
        print("smoke: storm and storm-2t digests differ (thread-count dependence)")
        failures += 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size and check it")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        die("--workload is required (or --smoke)")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"missing {spec_path}")
    exe = build()
    if args.smoke:
        sys.exit(smoke(exe, args.seed))

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    result, errors = run_workload(exe, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        print("\n".join(errors), file=sys.stderr)
        sys.exit(1)
    section = "per_layer" if args.trace else "end_to_end"
    measured = result.get(section, {})
    metrics = {}
    for m in spec[section]:
        if m["name"] not in measured:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = measured[m["name"]]

    host = result["host"]
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    pin = result["pin"]
    print(f"{args.workload} seed {args.seed}: digest {pin['digest']}, "
          f"{pin['arrivals']} arrivals, {pin['solved']} solved, {pin['shed']} shed, "
          f"samples {result['samples']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, v in result.get("per_variant", {}).items():
        print(f"  variant {name}: {v}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
