#!/usr/bin/env python3
"""Self-check of the repository benchmark; takes about a minute.

Run from the repository root:

    python3 perfbench/selfcheck.py

It runs run.py on seconds-sized variants of the three workloads (census
at n=7 with UCG on one thread and BCG-only on four, dynamics at n=7 with 20
runs per alpha) and asserts that:

  * with --trace 0 every end_to_end metric of BENCHMARK.json is printed,
    by name and with its unit, and with --trace 1 every per_layer metric;
  * every check passes (exit 0, "correct": true, "failed": 0);
  * the layers a workload bypasses read exactly 0 in the traced run: the
    UCG metrics on the BCG-only census, gen and analysis on dynamics;
  * a doctored CSV digest trips the checks: nonzero exit, "correct":
    false, "failed" > 0;
  * in a directory holding only BENCHMARK.json and the benchmark, run.py
    exits nonzero without printing a result.

Exits 0 when all of that holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")

CENSUS = "selfcheck-census-n7"
CENSUS_BCG = "selfcheck-census-bcg-n7"
DYNAMICS = "selfcheck-dynamics-n7"

UCG_REGION = ["equilibria.ucg.busy_s", "equilibria.ucg.region_searches",
              "equilibria.ucg.player_intervals", "equilibria.ucg.orientations",
              "equilibria.ucg.call_p50_us", "equilibria.ucg.call_p9999_us"]


class Checker:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            self.failures += 1


def run_bench(workload, trace, *extra, cwd=None):
    """(exit code, stdout lines, parsed result or None)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False, cwd=cwd)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, lines, result


def check_metrics(check, label, lines, result, declared):
    metrics = result["metrics"]
    check.expect(sorted(metrics) == sorted(m["name"] for m in declared),
                 f"{label}: metric names match BENCHMARK.json")
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = metrics.get(name, {})
        check.expect(got.get("unit") == unit and
                     isinstance(got.get("value"), (int, float)),
                     f"{label}: {name} reported in {unit}")
        check.expect(any(line.split()[1:2] == [name] and line.split()[-1] == unit
                         for line in lines[:-1]),
                     f"{label}: {name} printed with its unit")


def main():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    check = Checker()

    traced = {}
    for workload in (CENSUS, CENSUS_BCG, DYNAMICS):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, lines, result = run_bench(workload, trace)
            check.expect(code == 0 and result is not None and
                         result["correct"] and result["failed"] == 0 and
                         result["attempted"] >= 1,
                         f"{label}: exits 0 with every check passing")
            if result is None:
                continue
            check_metrics(check, label, lines, result, declared)
            if trace:
                traced[workload] = {k: v["value"]
                                    for k, v in result["metrics"].items()}

    if CENSUS_BCG in traced:
        layers = traced[CENSUS_BCG]
        check.expect(all(layers[name] == 0 for name in UCG_REGION),
                     "BCG-only census: every UCG metric is exactly 0")
        check.expect(layers["gen.accepts"] > 0 and
                     layers["equilibria.bcg.calls"] > 0,
                     "BCG-only census: gen and BCG did work")
    if DYNAMICS in traced:
        layers = traced[DYNAMICS]
        idle = [n for n in layers if n.startswith(("gen.", "analysis."))]
        check.expect(all(layers[name] == 0 for name in idle),
                     "dynamics: every gen.* and analysis.* metric is exactly 0")
        check.expect(layers["dynamics.runs"] > 0 and
                     layers["equilibria.ucg.oracle_calls"] > 0,
                     "dynamics: dynamics and the oracle did work")
    if CENSUS in traced:
        layers = traced[CENSUS]
        check.expect(layers["equilibria.ucg.region_searches"] ==
                     layers["equilibria.bcg.calls"] > 0,
                     "census: one UCG region search per profiled topology")

    code, _, result = run_bench(CENSUS, 0, "--digest-override", "0" * 64)
    check.expect(code != 0 and result is not None and
                 not result["correct"] and result["failed"] > 0,
                 "doctored digest: nonzero exit, correct false, failed > 0")

    bare = os.path.abspath(os.path.join(".bench_build", "selfcheck-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    bare_run = os.path.join(bare, "perfbench", "run.py")
    done = subprocess.run([sys.executable, bare_run, "--workload", CENSUS,
                           "--seed", "7", "--seconds", "1", "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False, cwd=bare,
                          env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
    check.expect(done.returncode != 0 and '"correct"' not in done.stdout,
                 "benchmark alone: nonzero exit and no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{check.failures} failure(s)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
