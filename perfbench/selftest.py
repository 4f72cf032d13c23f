#!/usr/bin/env python3
"""Self-test of the benchmark. Run from anywhere:

    python3 perfbench/selftest.py

1. Every workload, at --size tiny, with --trace 0 and --trace 1: the run
   is correct (recorded digests included), and the last line names every
   metric of BENCHMARK.json with its unit, and nothing else.
2. A corrupted expected digest is reported as a failure, not a pass.
3. A directory holding only BENCHMARK.json and perfbench/ makes run.py
   exit non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench-run", "selftest")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "42", "--seconds", "2",
           "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("exit %d\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(bench):
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(w["name"], trace)
            res = result_of(proc)
            label = "%s --trace %d" % (w["name"], trace)
            keys = {"correct", "attempted", "failed", "metrics"}
            assert set(res) == keys, label
            assert res["correct"] and res["failed"] == 0, (label, proc.stderr)
            assert res["attempted"] >= 1, label
            assert '"digests_checked": true' in proc.stdout, label
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (label, set(got) ^ set(want))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (label, name)
                assert math.isfinite(m["value"]), (label, name)
                assert "metric " + name in proc.stdout, (label, name)
            print("ok   %s: %d metrics" % (label, len(got)))


def check_corrupted_digest():
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    digest = expected["tiny"]["timeline-dense"]["history"]
    expected["tiny"]["timeline-dense"]["history"] = (
        ("0" if digest[0] != "0" else "1") + digest[1:])
    path = os.path.join(SCRATCH, "corrupted-expected.json")
    with open(path, "w") as f:
        json.dump(expected, f)
    res = result_of(run("timeline-dense", 0, "--expected", path))
    assert not res["correct"] and res["failed"] >= 1, res
    print("ok   corrupted digest reported: %d failed" % res["failed"])


def check_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "timeline-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok   bare directory: exit %d, no result" % proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        check_metrics(bench)
        check_corrupted_digest()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
