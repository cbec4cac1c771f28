#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

builds perfbench/ (and the simulator libraries from src/) into
.bench_build/, runs the workload with a pinned environment and a fresh
result-cache directory, checks the simulated records, and prints one
JSON object as the last line of standard output:

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also writes its spans to
.bench_build/spans/. --record FILE appends the full result (metrics plus
commit, seed, nproc, build type and sample counts) as one JSON line.

    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

compares two such record files run as alternating pairs, one row per
workload and metric, and exits 1 when a metric got worse or failed_frac
rose. --write-reference stores a seed-1 run's records as the checked-in
reference. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "perfbench"
REFERENCE = HERE / "reference"
WORKLOADS = ("suite-cold", "sweep", "serve-mixed")
REFERENCE_SEED = 1
RUN_TIMEOUT_S = 170
# Variables the simulator reads; a run must not inherit any of them.
PINNED_ENV = ("LAPERM_TICK_MODE", "LAPERM_JOBS", "LAPERM_TRACE_DIR",
              "LAPERM_NO_CACHE", "LAPERM_SCALE", "LAPERM_SIM_FINGERPRINT",
              "LAPERM_CACHE_DIR")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} is missing")
    return json.loads(path.read_text())


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no simulator sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", str(CMAKE_DIR), "--target", "perfbench",
              "-j", jobs]]
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            die(f"build failed: {' '.join(cmd)}")
    cache = (CMAKE_DIR / "CMakeCache.txt").read_text()
    flags = [line for line in cache.splitlines()
             if line.startswith(("CMAKE_BUILD_TYPE:", "CMAKE_CXX_FLAGS:"))]
    if "CMAKE_BUILD_TYPE:STRING=Release" not in flags or any(
            "-fsanitize" in f for f in flags):
        die(f"refusing to time a non-Release or sanitizer build: {flags}")


def commit():
    """The git commit when there is one; always the sources' digest."""
    head = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        head = done.stdout.strip() or head
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return head, digest.hexdigest()[:16]


def read_records(path):
    records = {}
    if path.is_file():
        for line in path.read_text().splitlines():
            cell, _, payload = line.partition("\t")
            records[cell] = payload
    return records


def check_records(workload, seed, run_records, write_reference):
    """Gate 1: records repeat across runs of a seed and match the
    checked-in reference for the reference seed. Returns
    (mismatched record count, messages)."""
    got = read_records(run_records)
    if not got:
        return 1, ["the run wrote no records"]
    against = []
    ref = REFERENCE / f"{workload}.tsv"
    if seed == REFERENCE_SEED:
        if write_reference:
            REFERENCE.mkdir(exist_ok=True)
            shutil.copyfile(run_records, ref)
        against.append(("reference", read_records(ref)))
    earlier = BUILD / "records" / f"{workload}-{seed}.tsv"
    if earlier.is_file():
        against.append(("earlier run", read_records(earlier)))
    else:
        earlier.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(run_records, earlier)
    bad, msgs = 0, []
    for name, want in against:
        for cell, payload in got.items():
            if want.get(cell, payload) != payload:
                bad += 1
                if len(msgs) < 8:
                    msgs.append(f"{cell} differs from the {name}")
        if name == "reference" and not want:
            bad += 1
            msgs.append(f"no reference records in {ref}")
    return bad, msgs


def run(args):
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    bench = spec()
    build()
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    tmp = BUILD / "tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["LAPERM_CACHE_DIR"] = str(tmp / "cache")
    spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.trace.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    records = tmp / "records.tsv"
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--records",
           str(records), "--tmp", os.path.relpath(tmp, ROOT)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if result is None:
            die(f"perfbench exited {done.returncode} without a result")
        bad, msgs = check_records(args.workload, args.seed, records,
                                  args.write_reference)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = result["failed"] + bad
    errors = result["errors"] + msgs
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            failed += 1
            errors.append(f"metric {m['name']} missing")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = failed == 0 and not errors
    head, digest = commit()
    meta = {k: result[k] for k in ("workload", "seed", "trace", "build_type",
                                   "fingerprint", "nproc", "jobs", "passes",
                                   "samples", "pass_wall_s")}
    meta.update(commit=head, source_digest=digest, seconds=args.seconds,
                errors=errors)
    if args.trace:
        meta["spans"] = os.path.relpath(spans, ROOT)
    for e in errors:
        print(f"perfbench: FAIL {e}", file=sys.stderr)
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a") as out:
            out.write(json.dumps({**meta, **line}) + "\n")
    print("perfbench-meta " + json.dumps(meta))
    print(json.dumps(line))
    return 0 if correct else 1


# ------------------------------------------------------------------ compare

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_is_better, spread_counts=True):
    """The choosing-metrics §8 rule on one metric of one workload.
    spread_counts=False (setup_s) judges the medians alone, as the
    benchmark contract does for set-up time."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    gain = sign * (pm - cm)  # > 0: the change is better
    every_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "better", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    if spread_counts and spread > bound * abs(pm) and not every_better:
        return "unresolved", wins
    return "unchanged", wins


def load(path):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    return [r for r in rows if not r.get("trace")]


def compare(parent_path, change_path):
    bench = spec()
    parent, change = load(parent_path), load(change_path)
    exit_code = 0
    header = (f"{'workload':<12} {'metric':<20} {'parent q1/med/q3':>28} "
              f"{'change q1/med/q3':>28} {'won':>7}  verdict")
    print(header)
    for workload in WORKLOADS:
        ps = [r for r in parent if r["workload"] == workload]
        cs = [r for r in change if r["workload"] == workload]
        if not ps or not cs:
            continue
        # Pair runs by seed, in the order they were recorded.
        by_seed = {}
        for r in ps:
            by_seed.setdefault(r["seed"], []).append(r)
        pairs = []
        for r in cs:
            if by_seed.get(r["seed"]):
                pairs.append((by_seed[r["seed"]].pop(0), r))
        if not pairs:
            print(f"{workload:<12} no runs share a seed")
            exit_code = 1
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            v, wins = verdict(pv, cv, m["bound"], m["better"] == "lower",
                              spread_counts=name != "setup_s")
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:<12} {name:<20} {fmt(quartiles(pv)):>28} "
                  f"{fmt(quartiles(cv)):>28} {wins:>3}/{len(pairs):<3}  {v}")
            if v == "worse":
                exit_code = 1
        pf = sum(p["failed"] for p, _ in pairs) / sum(
            p["attempted"] for p, _ in pairs)
        cf = sum(c["failed"] for _, c in pairs) / sum(
            c["attempted"] for _, c in pairs)
        v = "worse" if cf > pf else "unchanged"
        print(f"{workload:<12} {'failed_frac':<20} {pf:>28.4g} {cf:>28.4g} "
              f"{'':>7}  {v}")
        if v == "worse":
            exit_code = 1
    return exit_code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the full result to this file")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this seed-1 run's records as the reference")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload or --compare is required")
    if args.write_reference and args.seed != REFERENCE_SEED:
        ap.error(f"--write-reference needs --seed {REFERENCE_SEED}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
