#!/usr/bin/env python3
"""The repository benchmark: build pdlbench, run one workload hermetically,
check its output against BENCHMARK.json and print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout; everything is built and written under
<checkout>/.bench_build. The last line of standard output is the JSON result
({"correct","attempted","failed","metrics"}); lines before it starting with
"# " are labels. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BIN = BUILD / "perfbench" / "pdlbench"
RUN_TIMEOUT_S = 170
# Workloads pdlbench runs that BENCHMARK.json does not list: their
# end-to-end figures swing with the host more than any allowed bound, so
# they are for reading, not for accepting a change (see README.md).
UNBOUNDED_WORKLOADS = ["fuzz-service"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds pdlbench; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cfg = ["cmake", "-S", str(HERE), "-B", str(BIN.parent),
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("configuring the benchmark failed")
    cmd = ["cmake", "--build", str(BIN.parent), "--target", "pdlbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("building the benchmark failed")


def hermetic_env(tmp):
    """The caller's environment without PDL_* knobs, with a fresh TMPDIR
    (where the native artifact store and service state would live)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PDL_")}
    env["TMPDIR"] = str(tmp)
    return env


def revision_labels():
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git = "none"
    h = hashlib.sha256()
    for top in ("src", "cores_pdl", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return git, h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workload_names(bench):
    return [w["name"] for w in bench["workloads"]] + UNBOUNDED_WORKLOADS


def check_result(line, trace, bench):
    """Parses the result line and checks it names every metric of the
    selected set, with its unit, and nothing else. Returns the object."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark printed no result line")
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        fail("result has the wrong keys")
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "wrong unit %s" % (missing, extra, units))
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            fail("metric %s has no numeric value" % k)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("nothing was attempted")
    return res


def run_bench(workload, seed, seconds, trace, extra=()):
    """Runs pdlbench once; returns (label lines, result object)."""
    tmp = BUILD / "tmp" / ("run-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(ROOT)]
    if trace:
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.jsonl" % (workload, seed)))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, env=hermetic_env(tmp), capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("pdlbench exited with %d" % proc.returncode)
    return lines[:-1], lines[-1]


def selftest():
    """Failure accounting and output schema, on tiny runs."""
    bench = spec()
    _, line = run_bench("fuzz-service", 0, 1, 0, ["--known-bad"])
    res = json.loads(line)
    if res["attempted"] != 2 or res["failed"] != 2:
        fail("the known-bad request (rename, l1-4k, program 19) was not "
             "counted as failed: %s" % line)
    print("selftest: known-bad request counted as failed (2 of 2)")
    for name in workload_names(bench):
        for trace in (0, 1):
            _, line = run_bench(name, 1, 1, trace)
            res = check_result(line, trace, bench)
            if not res["correct"]:
                fail("%s trace=%d was inconsistent" % (name, trace))
            print("selftest: %s trace=%d prints all %d metrics with units"
                  % (name, trace, len(res["metrics"])))
    print("selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        selftest()
        return
    if None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    bench = spec()
    if a.workload not in workload_names(bench):
        fail("unknown workload " + a.workload)
    before = cpu_ticks()
    labels, line = run_bench(a.workload, a.seed, a.seconds, a.trace)
    after = cpu_ticks()
    res = check_result(line, a.trace, bench)
    git, digest = revision_labels()
    for l in labels:
        print(l)
    print("# git_rev=%s src_digest=%s" % (git, digest))
    # CPU time the hypervisor took from this VM during the run: timings of
    # a run with a high share are slow for reasons outside the program.
    if before and after and after[1] > before[1]:
        print("# host_steal_pct=%.1f" % (100.0 * (after[0] - before[0]) /
                                         (after[1] - before[1])))
    print(json.dumps(res))
    sys.exit(0 if res["correct"] else 1)


if __name__ == "__main__":
    main()
