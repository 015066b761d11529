#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload census-n9 --seed 1 --seconds 30 --trace 0

It builds perfbench/measure.cpp together with the program's library from
source (into $CARGO_TARGET_DIR, default .bench_build), runs the workload
through perfbench_measure, checks the outputs against values pinned here, and
prints one line per metric followed by a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics of a traced replay instead.
Metric names and units are those of BENCHMARK.json.
The exit status is 0 only when every check passed. A build or
measurement failure exits 2 without a result line.

Workloads, metrics and what each layer metric should move are described
in perfbench/README.md and perfbench/record.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = {
    "census-n9": {"kind": "census", "n": 9, "threads": 1, "ucg": True},
    "census-bcg-n10": {"kind": "census", "n": 10, "threads": 4, "ucg": False},
    "ucg-dynamics-n10": {"kind": "dynamics", "n": 10, "threads": 1,
                         "runs": 400},
    # Seconds-sized variants of the same paths, for perfbench/selfcheck.py.
    "selfcheck-census-n7": {"kind": "census", "n": 7, "threads": 1,
                            "ucg": True},
    "selfcheck-census-bcg-n7": {"kind": "census", "n": 7, "threads": 4,
                                "ucg": False},
    "selfcheck-dynamics-n7": {"kind": "dynamics", "n": 7, "threads": 1,
                              "runs": 20},
}

# Connected graphs on n vertices up to isomorphism (OEIS A001349).
OEIS_A001349 = [0, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571]

# sha256 of the CSV that `bilatnet run poa-curve --n N [--skip-ucg] --csv`
# writes, pinned from the program; keyed by (n, UCG on).
CSV_DIGESTS = {
    (7, True): "ee8cdbcac6cee3c98f9739b5132ea7cc6ac3247ddb66a24722a19497b00006dc",
    (7, False): "1aa72856b30d067de4a7d1f43fccfb5c582c580bfe06c7b19e52d86e2615b607",
    (9, True): "7fe1f68bd619cf53efcc00744528e5fa0143d284c0611c56d2a05945be442a5e",
    (10, False): "f177b38c56a0df80566f3084a5000fa9974e162f2a476b7d5b780e0b26bf0aae",
}

# Metric names and units come from BENCHMARK.json, next to this directory.
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


class BenchError(Exception):
    """A build or measurement failure: no result can be reported."""


def run_logged(cmd):
    """Run a build step with its output on stderr, so stdout stays ours."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}")


def build_measure(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", cmake_dir, "--target", "perfbench_measure",
                "-j", jobs])
    return os.path.join(cmake_dir, "perfbench_measure")


def run_measure(exe, spec, args, out_dir):
    cmd = [exe, "--kind", spec["kind"], "--n", str(spec["n"]),
           "--threads", str(spec["threads"]), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out_dir]
    if spec["kind"] == "census" and not spec["ucg"]:
        cmd.append("--skip-ucg")
    if spec["kind"] == "dynamics":
        cmd += ["--runs", str(spec["runs"])]
    if args.trace:
        cmd.append("--trace")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, check=False)
    if done.returncode != 0:
        raise BenchError(f"perfbench_measure exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def sha256_of(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_outputs(spec, raw, digest):
    """(checked, failed): perfbench_measure's own checks plus the pinned ones."""
    checked, failed = raw["checked"], raw["failed"]
    for count in raw["topology_counts"]:
        checked += 1
        if count != OEIS_A001349[spec["n"]]:
            failed += 1
            print(f"check failed: {count} topologies, OEIS A001349 says "
                  f"{OEIS_A001349[spec['n']]}", file=sys.stderr)
    for path in raw["csv"]:
        checked += 1
        if sha256_of(path) != digest:
            failed += 1
            print(f"check failed: {path} does not match the pinned digest",
                  file=sys.stderr)
    return checked, failed


def end_to_end_metrics(raw):
    reps = raw["reps"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in reps),
        "peak_rss_mb": raw["peak_rss_bytes"] / 2**20,
        "setup_s": statistics.median(raw["setup_s"]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest-override", default=None,
                        help="expect this CSV digest instead of the pinned "
                             "one (selfcheck.py uses it to doctor the pin)")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    out_dir = os.path.join(build_root, "out", args.workload)
    try:
        with open(BENCHMARK_JSON, encoding="utf-8") as handle:
            declared = json.load(handle)["per_layer" if args.trace
                                         else "end_to_end"]
        os.makedirs(out_dir, exist_ok=True)
        exe = build_measure(build_root)
        raw = run_measure(exe, spec, args, out_dir)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    digest = args.digest_override or CSV_DIGESTS.get(
        (spec["n"], spec.get("ucg", False)))
    checked, failed = check_outputs(spec, raw, digest)
    if checked == 0:  # nothing was verified: that is a failure too
        checked, failed = 1, 1
    values = raw["layers"] if args.trace else end_to_end_metrics(raw)
    if sorted(values) != sorted(m["name"] for m in declared):
        print("perfbench: the measured metrics differ from BENCHMARK.json's",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_ratio {failed / checked:.6g} "
          f"({failed} of {checked} checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": checked,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
