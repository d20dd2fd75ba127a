#!/usr/bin/env python3
"""Build the cyclone benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dycore_c24_r24 --seed 1 --seconds 15 --trace 0

The first call configures and builds `.bench_build/` (a few minutes); later
calls rebuild incrementally. Output files (run records, traces, the private
kernel caches) go to `.bench_out/`. The last line of standard output is the
JSON result, with the metrics BENCHMARK.json lists for the mode in its
order: end-to-end metrics with --trace 0, per-layer ones with --trace 1. A
per-layer metric of a layer the workload does not exercise reads 0; a
missing metric of any other layer, or a measured metric BENCHMARK.json does
not list, fails the run. Everything else goes to standard error. The exit
status is the benchmark's (0 = ran and every correctness check passed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170

# Per-layer metrics (by name prefix) of the layers a workload does not
# exercise; they read 0 in its traced runs.
UNEXERCISED = {
    "dycore_c24_r24": ("ensemble.", "service."),
    # The service runs the kernels and the compile inside its worker, out of
    # the benchmark's sight.
    "forecast_mix": ("exec.", "comm.", "fv3.", "jit.compile_s"),
}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no cyclone source tree under {ROOT}")
        return False
    # Compiler temporaries (library build and generated kernels) stay inside
    # the checkout.
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the paths and bytes of every source file the build reads."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def select_metrics(measured, workload, trace):
    """The metrics BENCHMARK.json lists for this mode, in its order; None
    when one the workload should measure is missing, or when it measured
    one BENCHMARK.json does not list (such as the time of a renamed or
    merged compute state)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace else "end_to_end"]
    unlisted = sorted(set(measured) - {metric["name"] for metric in listed})
    if unlisted:
        log("result has metrics BENCHMARK.json does not list: " + ", ".join(unlisted))
        return None
    selected = {}
    for metric in listed:
        name = metric["name"]
        if name in measured:
            selected[name] = measured[name]
        elif trace and name.startswith(UNEXERCISED[workload]):
            selected[name] = {"value": 0, "unit": metric["unit"]}
        else:
            log("result lacks metric " + name)
            return None
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in UNEXERCISED:
        log("unknown workload " + args.workload)
        return 2

    if not build():
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    lines = stdout.strip().splitlines()
    if not lines:
        log("benchmark printed no result")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON: " + lines[-1])
        return 1
    metrics = select_metrics(result.get("metrics", {}), args.workload, args.trace)
    if metrics is None:
        return 1
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
