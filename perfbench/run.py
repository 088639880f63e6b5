#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload snn_stdp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test          # the benchmark's own tests

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which builds the neurocmp libraries from ../src) under
$CARGO_TARGET_DIR, default .bench_build. The driver's last stdout line
is the result: one JSON object with correct, attempted, failed and
metrics. Each run's host stamp and result are also saved under
<build dir>/results/ for perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# Pinned so thread-count changes never pass for speed-ups; two leaves
# the load generator's threads a core on a four-core host.
THREADS = "2"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no neurocmp sources under {ROOT}; run from a full checkout")
        sys.exit(2)
    cmake_dir = build_dir() / "cmake"
    out = sys.stderr
    if not (cmake_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=out)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs,
                    "--target", *targets], check=True, stdout=out)
    return cmake_dir


def commit_id():
    """The git commit, or a digest of the sources in a plain checkout."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt", "cmake"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def clean_env():
    # Nothing from the caller's NEURO_* settings may change what runs,
    # except the SIMD override, which the stamp records.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NEURO_") or k == "NEURO_SIMD"}
    env["NEURO_THREADS"] = THREADS
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["snn_stdp", "mlp_bp", "wire_mlp"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--results", type=pathlib.Path,
                    help="where to save run records "
                         "(default <build dir>/results)")
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.test:
        cmake_dir = build(["perfbench_tests"])
        sys.exit(subprocess.run([str(cmake_dir / "perfbench_tests")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    cmake_dir = build(["perfbench_driver"])
    results = args.results or build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(cmake_dir / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{tag}.trace.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=clean_env(), timeout=170)
    lines = proc.stdout.splitlines()
    stamp = next((json.loads(l[len("stamp "):]) for l in lines
                  if l.startswith("stamp ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if stamp is not None:
        print("stamp " + json.dumps(stamp), flush=True)
    if result is None:
        log(f"driver exited {proc.returncode} without a result")
        sys.exit(proc.returncode or 1)
    (results / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
         "result": result}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
