#!/usr/bin/env python3
"""Repository benchmark: host cost and modeled results of the simulator.

Run from the root of a source tree:

  python3 perfbench/run.py --workload uts|ft|kv --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --anchor

A measuring run builds the simulator and the driver from source into
.bench_build/ (incrementally after the first time), samples cold set-up in
fresh driver processes, then runs the workload's
simulations in one driver process for the rest of the time, checks its
outputs and prints every metric as a table, then the result as one JSON
line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
its per-layer metrics and writes the benchmark's spans to
.bench_build/spans/<workload>-<seed>.json.

Modeled values and counts must repeat exactly across all runs of one build:
each run compares them with the record the last run of the same binary,
workload and input left in .bench_build/determinism/ and counts a mismatch
as a failed check.

`--self-test` runs each workload ten times, on seeds 1-10, for BENCHMARK.json's
run_seconds each, and reports the median, quartiles and spread of every
end-to-end metric against its bound. `--anchor` checks the benchmark against the existing suite: the uts
workload on seed 28 against the Fig 3.3 bench's full-tier 128-rank
diffusion cell, and the kv workload against examples/kv_server run with the
same parameters. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "perfbench"
DRIVER = BUILD_DIR / "perfbench"
WORKLOADS = ("uts", "ft", "kv")
DEADLINE_S = 170  # a run's driver processes must all end within this
SETUP_SAMPLES = 7
# Processes averaged into one set-up sample. ft's set-up takes about 0.1 ms
# and runs at one of two speeds for a whole process (about 75 or 110 us, at
# random), so the median of single ft processes flips between the two; a
# sample of ft averages five processes. uts and kv fault in hundreds of MB
# per set-up, which averages out within one process.
SETUP_GROUP = {"uts": 1, "ft": 5, "kv": 1}
SETUP_METRICS = ("setup_s", "gas.setup_s", "gas.rss_mb", "gas.teardown_s",
                 "kv.setup_s")
SELF_TEST_SEEDS = range(1, 11)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(*targets):
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    for t in targets:
        cmd += ["--target", t]
    step(cmd)


def child_env():
    """Keep compiler and driver temporaries inside the build tree."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env())
    if done.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def run_driver(workload, seed, args, deadline):
    """Run one driver process; return its JSON line. `deadline` is the
    time.monotonic() by which it must have ended."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} driver timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} driver exited {done.returncode}")
    return json.loads(lines[-1])


def sample_setup(workload, seed, deadline):
    """Cold set-up metrics: the median over SETUP_SAMPLES samples, each the
    mean over SETUP_GROUP[workload] fresh --setup-only processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        group = [run_driver(workload, seed, ["--setup-only", "1"], deadline)
                 for _ in range(SETUP_GROUP[workload])]
        samples.append(group)
    return {name: {"value": statistics.median(
                       statistics.fmean(p["metrics"][name]["value"]
                                        for p in group)
                       for group in samples),
                   "unit": samples[0][0]["metrics"][name]["unit"]}
            for name in SETUP_METRICS}


def simulate(workload, seed, seconds, trace, spans=None):
    """Sample cold set-up in fresh processes, then simulate in one process
    for the rest of `seconds`; returns the driver's result with the set-up
    metrics merged into its metrics."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    setup = sample_setup(workload, seed, deadline)
    left = max(1e-3, seconds - (time.monotonic() - start))
    args = ["--seconds", repr(left), "--trace", str(trace)]
    if spans is not None:
        args += ["--spans", str(spans)]
    out = run_driver(workload, seed, args, deadline)
    out["metrics"].update(setup)
    return out


def binary_digest():
    h = hashlib.sha256()
    with open(DRIVER, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def determinism_check(workload, seed, exact):
    """Compare this run's exact values with the last run of the same build
    on the same input; returns the number of values that differ."""
    key = "ft" if workload == "ft" else f"{workload}-{seed}"  # ft: no input
    path = BUILD / "determinism" / f"{key}.json"
    digest = binary_digest()
    record = None
    if path.exists():
        with open(path) as f:
            record = json.load(f)
    if record is not None and record.get("binary") == digest:
        before = record["exact"]
        moved = sorted(k for k in set(before) | set(exact)
                       if before.get(k) != exact.get(k))
        for k in moved:
            log(f"perfbench: not deterministic: {k} was {before.get(k)}, "
                f"now {exact.get(k)}")
        return len(moved)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"binary": digest, "exact": exact}, f, indent=1)
    return 0


def measure(args):
    bench = spec()
    names = [m["name"] for m in bench["end_to_end" if args.trace == 0
                                     else "per_layer"]]
    build()
    spans = None
    if args.trace == 1:
        spans = BUILD / "spans" / f"{args.workload}-{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
    out = simulate(args.workload, args.seed, args.seconds, args.trace, spans)
    failed = out["failed"] + determinism_check(args.workload, args.seed,
                                               out["exact"])
    attempted = out["attempted"] + 1
    metrics = out["metrics"]
    metrics["ops_failed_frac"]["value"] = failed / attempted

    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    processes = SETUP_SAMPLES * SETUP_GROUP[args.workload]
    print(f"{args.workload} seed {args.seed}: {out['runs']} simulations, "
          f"set-up sampled in {processes} processes, "
          f"{attempted} checks, {failed} failed")
    for name, m in metrics.items():
        kind = "end-to-end" if name in names and args.trace == 0 else (
            "per-layer" if name in names else "reported")
        print(f"  {name:28s} {m['value']:>22.10g} {m['unit']:9s} {kind}")
    missing = [n for n in names if n not in metrics]
    wrong_unit = [n for n in names if n in metrics and
                  metrics[n]["unit"] != declared[n]["unit"]]
    if missing or wrong_unit:
        raise BenchError(f"driver metrics do not match BENCHMARK.json: "
                         f"missing {missing}, unit differs {wrong_unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }
    print(json.dumps(result))


def self_test():
    """Run each workload on seeds 1-10 (untraced) and report median,
    quartiles and spread of every end-to-end metric against its bound, and
    how far each median moved from the previous self-test of the same
    build (recorded in .bench_build/self-test.json)."""
    bench = spec()
    seconds = bench["run_seconds"]
    build()
    record_path = BUILD / "self-test.json"
    digest = binary_digest()
    previous = {}
    if record_path.exists():
        with open(record_path) as f:
            record = json.load(f)
        if record.get("binary") == digest:
            previous = record["medians"]
    medians = {}
    ok = True
    for workload in WORKLOADS:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in SELF_TEST_SEEDS:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if done.returncode != 0:
                raise BenchError(f"{workload} seed {seed} exited "
                                 f"{done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            log(f"{workload} seed {seed}: correct={result['correct']} " +
                " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()))
        print(f"{workload}: {len(SELF_TEST_SEEDS)} runs, seeds "
              f"{SELF_TEST_SEEDS[0]}..{SELF_TEST_SEEDS[-1]}, {seconds} s each")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "ok"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {m['name']:12s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.4f} bound {m['bound']:.2f}"
                  f"  {verdict}")
            key = f"{workload}/{m['name']}"
            medians[key] = med
            if key in previous:
                # Worse than the previous set by more than the bound fails.
                sign = 1 if m["better"] == "lower" else -1
                moved = sign * (med - previous[key]) / previous[key]
                worse = moved > m["bound"]
                ok = ok and not worse
                print(f"  {'':12s} vs previous set: median {previous[key]:.6g}"
                      f", worse by {moved:+.4f}  "
                      f"{'TOO FAR' if worse else 'ok'}")
    with open(record_path, "w") as f:
        json.dump({"binary": digest, "medians": medians}, f, indent=1)
    return ok


def parse_kv_server(text):
    pat = {
        "kv.ops": r"ops (\d+) \(",
        "kv.within_slo": r"SLO \((\d+)/\d+ ops\)",
        "kv.amo_ops": r"paths\s+(\d+) amo",
        "kv.rpc_ops": r"(\d+) rpc \(",
        "kv.probes": r"\((\d+) probes",
        "kv.retries": r"(\d+) retries\)",
        "kv.live": r"(\d+) live keys",
    }
    out = {}
    for key, rx in pat.items():
        m = re.search(rx, text)
        if m is None:
            raise BenchError(f"kv_server output lacks {key}")
        out[key] = float(m.group(1))
    return out


def anchor():
    build("perfbench", "anchor_kv_server", "anchor_fig_3_3")
    ok = True

    def expect(what, got, want):
        nonlocal ok
        same = got == want
        ok = ok and same
        print(f"  {what:34s} benchmark {got!r:>22} suite {want!r:>22} "
              f"{'ok' if same else 'MISMATCH'}")

    # uts: seed 28 is the Fig 3.3 tree; compare with the full-tier cell.
    uts = simulate("uts", 28, 1, 1)["exact"]
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        art = Path(tmp) / "fig33.json"
        subprocess.run([str(BUILD_DIR / "anchor_fig_3_3"), "--tier=full",
                        "--filter=uts.scaling.gige.t128.diffusion",
                        "--repetitions=1", f"--json={art}"],
                       check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        with open(art) as f:
            cell = json.load(f)["benchmarks"][0]
    print("uts seed 28 vs uts.scaling.gige.t128.diffusion (full tier):")
    expect("tree nodes", uts["uts.nodes"], 4576257.0)
    expect("tree nodes (suite)", uts["uts.nodes"],
           float(cell["counters"]["tree_nodes"]))
    expect("model_mnodes_per_s", uts["model_mnodes_per_s"],
           cell["metrics"]["mnodes_per_s"]["samples"][0])
    expect("sched.steal.attempt", uts["sched.steal.attempt"],
           float(cell["counters"]["sched.steal.attempt"]))

    # kv: the same parameters through examples/kv_server.
    seed = 1
    kv = simulate("kv", seed, 1, 0)["exact"]
    text = subprocess.run(
        [str(BUILD_DIR / "anchor_kv_server"), "--threads", "64", "--nodes",
         "8", "--machine", "lehman", "--dist=zipfian", "--zipf-s", "0.99",
         "--rw-mix", "0.5", "--kv-path=auto", "--keys", "4096", "--ops",
         "4096", "--arrival", "100000", "--slo-us", "50",
         "--read-cache=on", "--seed", str(seed)],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    print(f"kv seed {seed} vs examples/kv_server:")
    for key, want in parse_kv_server(text).items():
        expect(key, kv[key], want)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--anchor", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            return 0 if self_test() else 1
        if args.anchor:
            return 0 if anchor() else 1
        if args.workload is None or args.seconds is None:
            p.error("--workload and --seconds are required")
        measure(args)
        return 0
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log(f"perfbench: error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
