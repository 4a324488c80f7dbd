#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Builds perfbench (as run.py does) and checks, on 2% tables and 1-second
runs of every workload:

  * every metric BENCHMARK.json names is printed, with its unit, and no
    other: end-to-end metrics untraced, per-layer metrics traced;
  * a clean run is correct (exit 0, no failed op);
  * with the reference classifiers tampered, every op is reported failed,
    the result says correct=false and the exit code is non-zero, so the
    correctness gate is shown to fire;
  * traced and untraced grows do identical work: the same simulated
    seconds, requests, tree nodes, batches, rows scanned and CC updates;
  * a SQLCLASS_* variable in the environment makes the binary refuse to
    run, without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

import run

SCALE = "0.02"
SECONDS = "1"
GROW_WORKLOADS = ("grow_staged", "grow_bitmap", "grow_sharded")


def load_sheets():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sheet = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return spec, sheet("end_to_end"), sheet("per_layer")


def invoke(workload, trace, *extra, env=None):
    work_dir = os.path.join(run.BUILD_ROOT, "selftest", workload)
    command = [run.BINARY, "--workload", workload, "--seed", "3",
               "--seconds", SECONDS, "--trace", trace, "--work-dir", work_dir,
               "--scale", SCALE, *extra]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                timeout=run.RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = result.stdout.strip().splitlines()
    parsed = [json.loads(line) for line in lines[-2:]] if len(lines) >= 2 else []
    info = parsed[0]["perfbench"] if parsed else None
    res = parsed[1] if parsed else None
    return result.returncode, info, res


class Checker:
    def __init__(self):
        self.failures = []

    def check(self, ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            self.failures.append(what)


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    spec, end_to_end, per_layer = load_sheets()
    c = Checker()
    c.check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
            "BENCHMARK.json names the workloads run.py accepts")

    for workload in run.WORKLOADS:
        checks = {}
        for trace, sheet in (("0", end_to_end), ("1", per_layer)):
            code, info, res = invoke(workload, trace)
            tag = "%s trace=%s" % (workload, trace)
            c.check(code == 0 and res is not None and res["correct"] and
                    res["failed"] == 0 and res["attempted"] >= 1,
                    tag + ": clean run is correct")
            if res is None:
                continue
            c.check(sorted(res) == ["attempted", "correct", "failed",
                                    "metrics"],
                    tag + ": result has exactly the four keys")
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            c.check(printed == sheet,
                    tag + ": every named metric printed with its unit")
            checks[trace] = info.get("checks")
        if workload in GROW_WORKLOADS:
            c.check(checks.get("0") is not None and
                    checks.get("0") == checks.get("1"),
                    workload + ": traced and untraced grows do identical "
                    "work (%s)" % checks.get("0"))
        elif None not in checks.values():
            # Shared-scan crediting depends on timing; the solo warm-up tree
            # session does not.
            solo = [checks[t]["solo_tree_sim_s"] for t in ("0", "1")]
            c.check(solo[0] == solo[1] and solo[0] > 0,
                    workload + ": traced and untraced solo tree sessions "
                    "cost the same simulated seconds (%s)" % solo)

        code, _, res = invoke(workload, "0", "--tamper-reference")
        c.check(code != 0 and res is not None and not res["correct"] and
                res["failed"] == res["attempted"] and res["attempted"] >= 1,
                workload + ": tampered reference fails every op")

    env = dict(os.environ, SQLCLASS_FAULTS="server/cursor_advance=after:1")
    code, _, res = invoke("grow_staged", "0", env=env)
    c.check(code != 0 and res is None,
            "SQLCLASS_* in the environment: refused, no result printed")

    print("%d check(s) failed" % len(c.failures) if c.failures
          else "all checks passed")
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
