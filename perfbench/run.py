#!/usr/bin/env python3
"""Build and run the linsys runtime benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness (this directory's CMake package,
which compiles the library from ../src) is built on first use into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. Before each workload the checker's own test runs; then the workload
prints its metrics, a labels line, and as its last line one JSON object with
the keys correct, attempted, failed and metrics. The metrics are checked
against BENCHMARK.json: every declared end-to-end metric must be present with
its unit (--trace 0), and a declared layer metric the workload does not
exercise reads 0 (--trace 1). Any failed correctness check, undeclared metric,
build error or timeout exits non-zero. `--workload all` runs every workload in
turn and ends with one JSON object over all of them.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fwd_min", "nf_chain", "ckpt_live", "ifc_verify"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_metrics(trace):
    """The metric list BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def check_metrics(result, declared, trace):
    """Orders result's metrics as declared; returns a list of errors."""
    got = dict(result["metrics"])
    errors = []
    ordered = {}
    for d in declared:
        m = got.pop(d["name"], None)
        if m is None:
            if not trace:
                errors.append(f"metric not measured: {d['name']}")
                continue
            m = {"value": 0, "unit": d["unit"]}
        elif m["unit"] != d["unit"]:
            errors.append(f"metric {d['name']}: unit {m['unit']}, "
                          f"declared {d['unit']}")
        ordered[d["name"]] = m
    errors += [f"undeclared metric: {name}" for name in got]
    result["metrics"] = ordered
    return errors


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the harness; returns its build dir."""
    out = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", "3"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise RuntimeError("build failed")
    return out


def git_rev():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return res.stdout.strip() if res.returncode == 0 else "none"


def src_digest():
    """Content hash of the library sources, for builds outside git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run(cmd):
    """Runs cmd; returns (exit code, stdout). The child is killed and reaped
    if it overruns."""
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S}s: {' '.join(cmd)}")
        return 1, ""
    return res.returncode, res.stdout


def run_workload(bindir, workload, args, labels):
    code, out = run([os.path.join(bindir, "perfbench_checker_test")])
    if code != 0:
        log(out)
        log("checker self-test failed")
        return 1, None
    span_dir = os.path.join(build_root(), "perfbench-spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [os.path.join(bindir, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--repo-root", ROOT,
           "--span-dir", span_dir]
    for key, value in labels.items():
        cmd += ["--label", f"{key}={value}"]
    code, out = run(cmd)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(out)
        log(f"{workload}: no result line")
        return code or 1, None
    errors = check_metrics(result, declared_metrics(args.trace), args.trace)
    for err in errors:
        lines.insert(-1, f"CHECK FAILED: {err}")
        log(f"CHECK FAILED: {err}")
    if errors:
        result["correct"] = False
        code = code or 1
    lines[-1] = json.dumps(result)
    return code, ("\n".join(lines) + "\n", result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        bindir = build()
    except (RuntimeError, OSError) as err:
        log(f"perfbench: {err}")
        return 1
    labels = {"git_rev": git_rev(), "src_digest": src_digest()}

    if args.workload != "all":
        code, res = run_workload(bindir, args.workload, args, labels)
        if res is not None:
            sys.stdout.write(res[0])
            sys.stdout.flush()
        return code if res is not None else (code or 1)

    # Every workload in turn, then one summary object.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code, res = run_workload(bindir, workload, args, labels)
        worst = worst or code
        if res is None:
            total["correct"] = False
            continue
        sys.stdout.write("\n".join(res[0].strip().splitlines()[:-1]) + "\n")
        result = res[1]
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total), flush=True)
    return worst if worst else (0 if total["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
