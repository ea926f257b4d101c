#!/usr/bin/env python3
"""hspmv end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test [--seconds <s>]

Builds the `hspmv_e2e` driver from the repository sources (CMake, into
.bench_build/e2ebench), runs one workload, echoes its metric table, and
prints as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the `end_to_end` list of BENCHMARK.json,
with --trace 1 the `per_layer` list; a traced run also writes its spans
as Chrome trace-event JSON to .bench_build/traces/. The workloads and
the reason for each are in BENCHMARK.json; e2ebench/README.md defines
every metric and the layer -> end-to-end predictions.

--self-test runs every workload traced twice with the same seed and
checks that the exact counts repeat bit for bit and that both runs pass
their own self-checks (README.md, "Self-checks"); a failed check is
echoed to stderr.

Exit codes: 0 with a result line; 2 when the driver cannot be built
(e.g. the repository sources are absent); 3 when the driver fails, times
out, or omits a listed metric; 1 when the self-test fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "hspmv_e2e")
RUN_TIMEOUT_S = 170

# Counts that must repeat exactly between two runs of the same seed.
EXACT = ["solvers.iterations", "spmv.halo_bytes", "spmv.messages",
         "minimpi.messages", "minimpi.bytes"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; exits 2 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--parallel", "4"])
    started = time.monotonic()
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("e2ebench: build step failed: %s (log: %s)"
                    % (" ".join(step), log_path))
                with open(log_path) as f:
                    log("".join(f.readlines()[-30:]))
                sys.exit(2)
    log("e2ebench: driver up to date (%.1f s)" % (time.monotonic() - started))


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def git_head():
    """HEAD of the repository this checkout is, or "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_driver(workload, seed, seconds, trace, echo=True):
    """Run one workload; returns the parsed RESULT object."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--git-head", git_head()]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(TRACES, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("e2ebench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        sys.exit(3)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif echo:
            print(line)
        elif line.startswith("FAILED"):
            log("e2ebench: %s: %s" % (workload, line))
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0 or result is None:
        log("e2ebench: driver exited with %d" % proc.returncode)
        sys.exit(3)
    return result


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def benchmark(args):
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("e2ebench: unknown workload %r (one of %s)"
            % (args.workload, ", ".join(names)))
        sys.exit(3)
    build()
    result = run_driver(args.workload, args.seed, args.seconds,
                        args.trace == 1)
    wanted = spec["per_layer" if args.trace == 1 else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            log("e2ebench: driver did not report %s in %s"
                % (metric["name"], metric["unit"]))
            sys.exit(3)
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def self_test(args):
    build()
    ok = True
    for workload in [w["name"] for w in contract()["workloads"]]:
        runs = [run_driver(workload, args.seed, args.seconds, True, echo=False)
                for _ in range(2)]
        for i, run in enumerate(runs):
            if not run["correct"]:
                ok = False
                print("FAIL %s run %d: correct=false (failed %d of %d)"
                      % (workload, i + 1, run["failed"], run["attempted"]))
        for name in EXACT:
            values = [r["metrics"][name]["value"] for r in runs]
            same = values[0] == values[1]
            ok = ok and same
            print("%s %s %s: %s" % ("ok  " if same else "FAIL", workload,
                                    name, " vs ".join(repr(v) for v in values)))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test(args)
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        benchmark(args)


if __name__ == "__main__":
    main()
