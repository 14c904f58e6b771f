#!/usr/bin/env python3
"""Runner of the engine benchmark (perfbench/streamline_bench.cc).

Builds streamline_bench from the checkout's sources (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build, then:

  run.py --workload W --seed N --seconds S --trace 0|1
      One invocation. The last stdout line is one JSON object:
      {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
      with every end-to-end metric of BENCHMARK.json (--trace 0) or every
      per-layer metric (--trace 1). Exits non-zero when a result is wrong,
      a phase stalls or streamline_bench fails.

  run.py [-n 5] [--trace] [--out PATH]
      N invocations of every workload (seeds 1..N); prints median and
      p25/p75 of every metric per workload and writes
      build/bench-out/<sha>.json (or PATH).

  run.py --pairs PARENT [-n 10]
      Builds the benchmark a second time against PARENT's engine sources
      (PARENT/src) and runs parent and this checkout as pairs: the same
      seed and workload back to back, alternating which side goes first.
      Writes build/bench-out/pairs-{parent,change}.json and compares them.

  run.py --compare A.json B.json
      B against A, per workload and end-to-end metric: regression beyond
      the BENCHMARK.json bound, unresolved where the spread exceeds it,
      and, for the two reports of one --pairs run only, the gain rule
      (B wins at least 9 of 10 same-seed pairs).

  run.py --calibrate [-n 3]
      Runs the rate ladder of the motion workloads (the frozen rates in
      streamline_bench.cc are half of what it finds at the seed commit).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / "build" / "bench-out"
BENCH_TIMEOUT_S = 170
LADDER_START = {"ysb-motion": 250_000, "ctr-ckpt": 500}
MIN_PAIRS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(engine_root=ROOT, bd=None):
    """Configures (once) and builds streamline_bench against the engine
    sources under `engine_root`; returns the binary's path."""
    if not (engine_root / "src" / "CMakeLists.txt").is_file():
        log(f"engine sources not found under {engine_root / 'src'}")
        sys.exit(2)
    bd = bd or build_dir()
    if not (bd / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(bd),
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DSTREAMLINE_ROOT={engine_root}"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(bd),
                    "--target", "streamline_bench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return bd / "streamline_bench"


def run_bench(binary, workload, seed, seconds, trace, extra=(),
               timeout=BENCH_TIMEOUT_S):
    """Runs one streamline_bench invocation; returns its JSON report."""
    tmp = build_dir() / "tmp" / f"{workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--tmp-dir", str(tmp), *extra]
    if trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--trace-out",
                str(OUT_DIR / f"{workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0:
            report["ok"] = False
            report.setdefault("failures", []).append(
                f"streamline_bench exited with code {proc.returncode}")
    except subprocess.TimeoutExpired:
        report = {"ok": False, "failures": [
            f"streamline_bench killed after {timeout} s"]}
    except (json.JSONDecodeError, IndexError):
        report = {"ok": False, "failures": [
            "streamline_bench printed no report"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report["seed"] = seed
    for f in report.get("failures", []):
        log(f"{workload} seed {seed}: {f}")
    return report


def contract_result(report, wanted):
    """The one-line result: `wanted` is the list of metric specs."""
    metrics = {}
    values = report.get("metrics", {})
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    for m in wanted:
        if m["name"] in values and values[m["name"]] is not None:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    if missing:
        log(f"metrics missing from the report: {', '.join(missing)}")
    attempted = max(int(report.get("attempted", 0)), 1)
    failed = int(report.get("failed", 0))
    if not report.get("ok", False):
        failed = max(failed, 1)
    correct = bool(report.get("ok", False)) and failed == 0 and not missing
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def by_seed(runs, name):
    """{seed: value} of one metric over the runs that reported it."""
    return {r["seed"]: r["metrics"][name] for r in runs
            if r.get("metrics", {}).get(name) is not None}


def summarize(runs, specs):
    """{metric: {median, p25, p75, spread, unit, n}} over a workload's runs."""
    out = {}
    for m in specs:
        vals = list(by_seed(runs, m["name"]).values())
        if not vals:
            continue
        p25, med, p75 = quartiles(vals)
        out[m["name"]] = {
            "median": med, "p25": p25, "p75": p75, "unit": m["unit"],
            "spread": (p75 - p25) / abs(med) if med else 0.0, "n": len(vals)}
    return out


def git_sha(root=ROOT):
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=root, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def collect(sides, n, seconds, trace, spec):
    """Runs seeds 1..n of every workload on each (name, binary) side. With
    two sides, each seed's runs form a pair and the side that goes first
    alternates. Returns {side: {workload: [report, ...]}}."""
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {side: {w: [] for w in workloads} for side, _ in sides}
    for seed in range(1, n + 1):
        for w in workloads:
            order = sides if seed % 2 == 1 else sides[::-1]
            for side, binary in order:
                t0 = time.time()
                r = run_bench(binary, w, seed, seconds, trace)
                log(f"{side} {w} seed {seed}: {time.time() - t0:.1f} s, "
                    f"{'ok' if r.get('ok') else 'FAILED'}")
                runs[side][w].append(r)
    return runs


def write_report(runs, sha, seconds, trace, spec, path, pair_id=None):
    """Prints the summary of one side's runs and writes it to `path`."""
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    summary = {w: summarize(rs, specs) for w, rs in runs.items()}
    meta = next((r for rs in runs.values() for r in rs if "compiler" in r), {})
    report = {
        "sha": sha, "nproc": os.cpu_count(),
        "compiler": meta.get("compiler"), "build_type": meta.get("build_type"),
        "seconds": seconds, "trace": trace, "pair_id": pair_id,
        "runs": runs, "summary": summary}
    for w, rs in runs.items():
        print(f"\n{w}")
        print(f"  {'metric':34} {'median':>14} {'p25':>14} {'p75':>14} "
              f"{'spread':>7}  unit")
        for name, s in summary[w].items():
            print(f"  {name:34} {s['median']:14.6g} {s['p25']:14.6g} "
                  f"{s['p75']:14.6g} {s['spread']:7.1%}  {s['unit']}")
        att = sum(r.get("attempted", 0) for r in rs)
        fail = sum(r.get("failed", 0) for r in rs)
        print(f"  results attempted {att}, failed {fail} "
              f"(failed_frac {fail / max(att, 1):.3g})")
        host = [r["info"]["host_factor"] for r in rs
                if "host_factor" in r.get("info", {})]
        if host:
            print(f"  host_factor {min(host):.2f}-{max(host):.2f}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nwrote {path}")
    return all(r.get("ok") for rs in runs.values() for r in rs)


def suite(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    sha = git_sha()
    runs = collect([(sha, build())], args.n, seconds, args.trace, spec)
    path = Path(args.out) if args.out else OUT_DIR / (
        f"{sha}{'-trace' if args.trace else ''}.json")
    return 0 if write_report(runs[sha], sha, seconds, args.trace, spec,
                             path) else 1


def pairs(args, spec):
    parent = Path(args.pairs).resolve()
    seconds = args.seconds or spec["run_seconds"]
    sides = [("parent", build(parent, build_dir() / "parent")),
             ("change", build())]
    runs = collect(sides, args.n, seconds, False, spec)
    pair_id = f"{git_sha(parent)}..{git_sha()}@{int(time.time())}"
    paths = {}
    for side, root in (("parent", parent), ("change", ROOT)):
        paths[side] = OUT_DIR / f"pairs-{side}.json"
        print(f"\n=== {side} ({root})")
        write_report(runs[side], git_sha(root), seconds, False, spec,
                     paths[side], pair_id)
    print()
    return compare(paths["parent"], paths["change"], spec)


def compare(path_a, path_b, spec):
    """B against A: a regression is a median worse by more than the bound;
    a metric whose p25-p75 spread exceeds its bound is unresolved unless
    every run of B beats every run of A. A gain needs the two reports of
    one --pairs run: B wins >= 9/10 of at least 10 same-seed pairs, the
    medians differ by more than A's p25-p75 distance, and B fails no more
    results than A."""
    a = load_json(path_a)
    b = load_json(path_b)
    paired = a.get("pair_id") is not None and a["pair_id"] == b.get("pair_id")
    bad = 0
    print(f"A = {path_a} ({a.get('sha')}), B = {path_b} ({b.get('sha')})")
    if not paired:
        print("not one --pairs run: gains are not judged")
    print(f"{'workload':14} {'metric':18} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in a["runs"] or w not in b["runs"]:
            continue
        fail_a = sum(r.get("failed", 0) for r in a["runs"][w])
        fail_b = sum(r.get("failed", 0) for r in b["runs"][w])
        for m in spec["end_to_end"]:
            name = m["name"]
            va = by_seed(a["runs"][w], name)
            vb = by_seed(b["runs"][w], name)
            if not va or not vb:
                continue
            sign = 1 if m["better"] == "lower" else -1
            pa25, ma, pa75 = quartiles(list(va.values()))
            pb25, mb, pb75 = quartiles(list(vb.values()))
            worse = sign * (mb - ma) / abs(ma) if ma else 0.0
            spread = max((pa75 - pa25) / abs(ma) if ma else 0,
                         (pb75 - pb25) / abs(mb) if mb else 0)
            b_always_better = all(sign * (y - x) < 0
                                  for x in va.values() for y in vb.values())
            seeds = sorted(va.keys() & vb.keys()) if paired else []
            wins = sum(1 for s in seeds if sign * (vb[s] - va[s]) < 0)
            if spread > m["bound"] and not b_always_better:
                verdict = "unresolved (spread %.1f%% > bound)" % (100 * spread)
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                bad += 1
            elif (len(seeds) >= MIN_PAIRS and wins >= 0.9 * len(seeds)
                  and abs(mb - ma) > pa75 - pa25 and fail_b <= fail_a):
                verdict = f"gain ({wins}/{len(seeds)} pairs)"
            else:
                verdict = "unchanged"
            print(f"{w:14} {name:18} {ma:12.6g} {mb:12.6g} {worse:+8.1%} "
                  f"{m['bound']:6.0%}  {verdict}")
        verdict = "REGRESSION" if fail_b > fail_a else "unchanged"
        bad += fail_b > fail_a
        print(f"{w:14} {'failed results':18} {fail_a:12d} {fail_b:12d} "
              f"{'':8} {'0':>6}  {verdict}")
    return 1 if bad else 0


def calibrate(args):
    binary = build()
    for w in ("ysb-motion", "ctr-ckpt"):
        found = []
        for seed in range(1, args.n + 1):
            r = run_bench(binary, w, seed, 0, False,
                           ["--ladder", "--ladder-start",
                            str(LADDER_START[w])], timeout=1800)
            if r.get("metrics", {}).get("sustained_eps"):
                found.append(r["metrics"]["sustained_eps"])
        if found:
            med = statistics.median(found)
            print(f"{w}: sustained_eps {found} -> median {med:.0f}, "
                  f"frozen rate (50%) {med / 2:.0f} events/s")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    p.add_argument("-n", type=int)
    p.add_argument("--out")
    p.add_argument("--pairs", metavar="PARENT")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--deadline-s", type=float,
                   help="override every phase deadline (watchdog tests)")
    args = p.parse_args()
    spec = load_json(SPEC_PATH)
    if args.compare:
        return compare(*args.compare, spec)
    if args.calibrate:
        args.n = args.n or 3
        return calibrate(args)
    if args.pairs:
        args.n = args.n or MIN_PAIRS
        return pairs(args, spec)
    if args.workload is None:
        args.n = args.n or 5
        return suite(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    binary = build()
    seconds = args.seconds or spec["run_seconds"]
    extra = ["--deadline-s", str(args.deadline_s)] if args.deadline_s else []
    report = run_bench(binary, args.workload, args.seed, seconds,
                        bool(args.trace), extra)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = contract_result(report, wanted)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
