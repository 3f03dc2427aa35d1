#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny scale.

Runs every workload for one pass, untraced and traced, through
perfbench/run.py and checks that:
  * every end-to-end and per-layer metric in BENCHMARK.json is printed by
    name with its unit, and carried in the JSON result with that unit;
  * failed_run_share is printed and is 0;
  * each workload does the work it was chosen for (single_run: Octet
    roundtrips, PCD cycles, logged bytes; serve: DoubleChecker window
    flushes; serve_vc: vc window flushes and no Octet/log/ICD/PCD work).

Run from the repository root: python3 perfbench/selftest.py
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--seconds", "0.1", "--scale", "0.1", "--min-passes", "1",
        "--setup-reps", "1"]
LINE = re.compile(r"^(\S+) = (\S+) (\S+)")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--trace", str(trace)] + TINY,
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    return proc.returncode, printed, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s trace=%d" % (workload, trace)
            code, printed, result = run(workload, trace)
            check(code == 0, tag + ": exit code 0")
            check(result["correct"] and result["failed"] == 0,
                  tag + ": no failed run")
            check(printed.get("failed_run_share") == (0.0, "share"),
                  tag + ": failed_run_share = 0 share")
            for m in spec[group]:
                got = printed.get(m["name"])
                check(got is not None and got[1] == m["unit"] and
                      result["metrics"][m["name"]]["unit"] == m["unit"],
                      "%s: %s printed in %s" % (tag, m["name"], m["unit"]))
            if not trace:
                continue
            val = {k: v["value"] for k, v in result["metrics"].items()}
            if workload == "single_run":
                for k in ("octet.explicit_roundtrips", "pcd.cycles",
                          "logging.bytes_logged"):
                    check(val[k] > 0, "%s: %s > 0" % (tag, k))
            elif workload == "serve":
                check(val["governor.windows_flushed"] > 0,
                      tag + ": governor.windows_flushed > 0")
            else:
                check(val["vc.windows_flushed"] > 0,
                      tag + ": vc.windows_flushed > 0")
                busy = [k for k, v in val.items()
                        if k.split(".")[0] in ("octet", "logging", "icd", "pcd")
                        and v != 0]
                check(not busy, tag + ": no Octet/log/ICD/PCD work " +
                      str(busy))
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
