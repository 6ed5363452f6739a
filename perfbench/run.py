#!/usr/bin/env python3
"""The repository benchmark: host time of the DAMN simulator.

Builds perfbench_driver from the checkout's sources, runs one workload in
its own process, checks the simulator's outputs against the committed
behaviour fingerprints, and prints one JSON result as its last line.

    python3 perfbench/run.py --workload netperf_rx_mtu --seed 42 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one table
    python3 perfbench/run.py --bless            # re-record fingerprints

--trace 0 reports the end-to-end metrics; --trace 1 makes the traced run
and reports the per-layer metrics (METRICS.md lists both).  Spans of a
traced run are written to <build dir>/spans/spans-<workload>.json.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"
WORKLOADS = ("netperf_rx_mtu", "sweep_short", "fuzz_matrix")
DEFAULT_SEED = 42
# netperf_rx_mtu's seed only permutes the order the schemes run in; its
# outputs are compared per scheme, so its fingerprint holds on any seed.
SEED_INDEPENDENT = {"netperf_rx_mtu"}
# The driver times a fixed reference kernel between passes; the speed of
# a shared host drifts by tens of percent over minutes.  End-to-end times
# are stated at the speed at which that kernel takes REFERENCE_S, its
# duration on the quiet baseline host (METRICS.md), which cancels most
# of the drift.  Raw host times are printed alongside.
REFERENCE_S = 0.03


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then build the driver incrementally."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench_driver"


def threads_of(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_driver(exe, workload, seed, seconds, trace):
    """One workload in its own process; returns (result, max threads)."""
    out = build_dir() / f"result-{workload}-{int(trace)}.json"
    spans = build_dir() / "spans"
    spans.mkdir(exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--out={out}", f"--span-dir={spans}"]
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    deadline = time.monotonic() + min(150, 60 + 3 * seconds)
    threads = 0
    try:
        while proc.poll() is None:
            threads = max(threads, threads_of(proc.pid))
            if time.monotonic() > deadline:
                raise RuntimeError(f"{workload}: driver timed out")
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: driver exited {proc.returncode}")
    with open(out) as f:
        return json.load(f), threads


def load_expected(workload):
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)


def check(result, seed):
    """Count attempted and failed operations; print what failed."""
    attempted = failed = 0
    for workload, data in result["workloads"].items():
        passes = data["passes"]
        first = passes[0]["fingerprint"] if passes else None
        for i, p in enumerate(passes):
            attempted += p["attempted"]
            if p["fingerprint"] != first:
                print(f"{workload}: pass {i} fingerprint {p['fingerprint']} "
                      f"!= pass 0 {first}")
                failed += p["attempted"]
                continue
            failed += len(p["failures"])
            for line in p["failures"][:20]:
                print(f"{workload}: FAILED {line}")
        exp = load_expected(workload)
        if not passes or not exp:
            continue
        if seed != exp["seed"] and workload not in SEED_INDEPENDENT:
            continue
        if first == exp["fingerprint"]:
            continue
        got, want = data["entries"], exp["entries"]
        moved = sorted(k for k in set(got) | set(want)
                       if got.get(k) != want.get(k))
        print(f"{workload}: fingerprint {first} != expected "
              f"{exp['fingerprint']}; {len(moved)} entries moved")
        for k in moved[:40]:
            print(f"  {k}: expected {want.get(k)!r}, got {got.get(k)!r}")
        ops = {k.split("/")[0] for k in moved}
        failed += len(ops) * len(passes)
    return attempted, min(failed, attempted)


def end_to_end(data, peak_rss_mb):
    """Medians over the passes, each pass's host time stated at the
    reference machine speed (see REFERENCE_S)."""
    # A pass whose work threw did no timed work; its failure is counted.
    passes = [p for p in data["passes"] if p["work_s"] > 0] or data["passes"]
    scale = lambda p: REFERENCE_S / p["reference_s"]
    med = lambda f: statistics.median(f(p) for p in passes)
    return {
        "wall_s": (med(lambda p: p["wall_s"] * scale(p)), "s"),
        "setup_s": (med(lambda p: p["setup_s"] * scale(p)), "s"),
        "work_per_s": (med(lambda p: p["work"] /
                           max(p["work_s"] * scale(p), 1e-9)), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def unit_of(name):
    """Per-layer units follow the metric's name (see METRICS.md)."""
    words = set(re.split(r"[._]", name))
    for word, unit in (("ms", "ms"), ("ns", "ns"), ("pct", "%"),
                       ("ratio", "ratio"), ("s", "s")):
        if word in words:
            return unit
    return "count"


def details(data):
    """Medians of the raw and workload-specific figures (host time, not
    rescaled), for the human lines."""
    passes = data["passes"]
    out = {f"raw.{k}": statistics.median(p[k] for p in passes)
           for k in ("wall_s", "setup_s", "reference_s")}
    keys = sorted({k for p in passes for k in p["detail"]})
    out.update({k: statistics.median(p["detail"][k] for p in passes
                                     if k in p["detail"]) for k in keys})
    return out


def run_one(exe, args):
    result, threads = run_driver(exe, args.workload, args.seed,
                                 args.seconds, args.trace)
    attempted, failed = check(result, args.seed)
    data = result["workloads"][args.workload]
    if args.trace:
        metrics = {k: (v, unit_of(k)) for k, v in result["per_layer"].items()}
    else:
        metrics = end_to_end(data, result["peak_rss_mb"])
        for k, v in details(data).items():
            print(f"{args.workload}: {k} = {v:.6g}")
    print(f"{args.workload}: {len(data['passes'])} passes, "
          f"fingerprint {data['passes'][0]['fingerprint']}, "
          f"peak_rss_mb {result['peak_rss_mb']:.1f}, threads {threads}, "
          f"cpu/wall {result['cpu_s'] / result['elapsed_s']:.2f}")
    for k, (v, unit) in metrics.items():
        print(f"{args.workload}: {k} = {v:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def run_all(exe, args):
    """Every workload, each in its own process, as one table."""
    rows, ok = [], True
    for w in WORKLOADS:
        result, threads = run_driver(exe, w, args.seed, args.seconds, False)
        attempted, failed = check(result, args.seed)
        ok = ok and failed == 0
        data = result["workloads"][w]
        m = {k: v for k, (v, _) in end_to_end(data, result["peak_rss_mb"]).items()}
        d = details(data)
        rows.append((w, "wall_s", m["wall_s"], "s"))
        rows.append((w, "setup_s", m["setup_s"], "s"))
        for k in sorted(k for k in d if k.startswith("events_per_s.")):
            rows.append((w, k, d[k], "1/s"))
        rows.append((w, "peak_rss_mb", m["peak_rss_mb"], "MB"))
        rows.append((w, "threads", threads, "count"))
        if "fuzz_ops_per_s" in d:
            rows.append((w, "fuzz_ops_per_s", d["fuzz_ops_per_s"], "1/s"))
        rows.append((w, "attempted", attempted, "count"))
        rows.append((w, "failed", failed, "count"))
    for w, name, v, unit in rows:
        print(f"{w:16} {name:26} {v:14.6g} {unit}")
    return 0 if ok else 1


def bless(exe):
    """Record the default seed's fingerprints as the expected ones."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    for w in WORKLOADS:
        result, _ = run_driver(exe, w, DEFAULT_SEED, 0, False)
        data = result["workloads"][w]
        p = data["passes"][0]
        if p["failures"]:
            raise RuntimeError(f"{w}: refusing to bless a failing run: "
                               f"{p['failures'][:5]}")
        old = load_expected(w)
        if old and old["fingerprint"] != p["fingerprint"]:
            moved = sorted(k for k in set(data["entries"]) | set(old["entries"])
                           if data["entries"].get(k) != old["entries"].get(k))
            print(f"{w}: {len(moved)} entries moved")
            for k in moved:
                print(f"  {k}: {old['entries'].get(k)!r} -> "
                      f"{data['entries'].get(k)!r}")
        doc = {"workload": w, "seed": DEFAULT_SEED,
               "fingerprint": p["fingerprint"], "entries": data["entries"]}
        with open(EXPECTED_DIR / f"{w}.json", "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"{w}: blessed {p['fingerprint']}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true",
                    help="re-record the expected fingerprints")
    args = ap.parse_args()
    if not args.bless and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        exe = build()
        if args.bless:
            return bless(exe)
        if args.workload == "all":
            return run_all(exe, args)
        run_one(exe, args)
        return 0
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
