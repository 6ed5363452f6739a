#!/usr/bin/env python3
"""List the src/ functions that no experiment, fuzzer cell or replay runs,
and the counters that no experiment touches.

Usage: verify_reach.py BUILD_DIR SOURCE_DIR

BUILD_DIR is a tree configured with -DDAMN_COVERAGE=ON in which
damn_bench, damn_fuzz and the examples are built (the `verify-reach`
target uses the verify-coverage tree, build/coverage).  The script
clears old .gcda counts, then runs:

  - every experiment at 1+2 ms: seed 42 on VT-d, seed 7 on SMMUv3;
  - one --trace run (the netperf experiments);
  - the damn_fuzz matrix at 5000 ops per cell;
  - one --inject=stale-tlb --shrink --save run;
  - a --replay of every tests/corpus/*.dfz file;
  - damn_bench --list and the four examples with their default
    arguments.

It then reads the counts with `gcov --json-format` from the objects of
src/, bench/ and examples/ and prints each function defined under src/
that none of those runs entered, with a line and function summary.  The
bench/ and examples/ objects count too: an inline src/ function whose
kept copy was compiled into one of them has its counts there.  A function that is listed is a candidate
for deletion or for a caller in some experiment.  Last, it prints each
row of the counter table (src/sim/counters.hh) that no run's `stats`
block in the three damn_bench --json reports holds.  Both lists are
reports, not gates, and the exit status is 0 whatever they hold.
"""

import glob
import json
import os
import re
import subprocess
import sys
import tempfile

EXAMPLES = ("quickstart", "attack_demo", "firewall_inspection",
            "protection_comparison")

# Workers for damn_bench and damn_fuzz.  Each builds its own simulated
# machine, so two keep the run's memory small; the output does not
# depend on the count.
JOBS = 2


def run(cmd, cwd, expect=0):
    print("+ " + " ".join(cmd), flush=True)
    status = subprocess.run(cmd, cwd=cwd,
                            stdout=subprocess.DEVNULL).returncode
    if status != expect:
        sys.exit(f"exit status {status}, expected {expect}")


def exercise(build, source):
    bench = os.path.join(build, "bench", "damn_bench")
    fuzz = os.path.join(build, "bench", "damn_fuzz")
    for gcda in glob.glob(os.path.join(build, "**", "*.gcda"),
                          recursive=True):
        os.remove(gcda)
    with tempfile.TemporaryDirectory() as out:
        window = ["--warmup-ms=1", "--measure-ms=2", f"--jobs={JOBS}"]
        run([bench, *window, "--seed=42", "--json=vtd.json"], out)
        run([bench, *window, "--seed=7", "--backend=smmuv3",
             "--json=smmuv3.json"], out)
        run([bench, *window, "--only=netperf*", "--json=trace.json",
             "--trace=trace.trace"], out)
        touched = set()
        for report_json in ("vtd.json", "smmuv3.json", "trace.json"):
            with open(os.path.join(out, report_json)) as f:
                for exp in json.load(f)["experiments"]:
                    for r in exp["runs"]:
                        touched.update(r["stats"])
        run([fuzz, "--ops=5000", "--scheme=all", "--backend=all",
             f"--jobs={JOBS}"], out)
        # The planted bug must be caught: damn_fuzz exits 3 and saves
        # the shrunk case as a corpus file.
        run([fuzz, "--inject=stale-tlb", "--shrink", "--save=.",
             f"--jobs={JOBS}"], out, expect=3)
        corpus = sorted(glob.glob(os.path.join(source, "tests", "corpus",
                                               "*.dfz")))
        run([fuzz, *(f"--replay={f}" for f in corpus)], out)
        run([bench, "--list"], out)
        for name in EXAMPLES:
            run([os.path.join(build, "examples", name)], out)
    return touched


def gcov_documents(build):
    """Yield gcov's JSON document for every object compiled from src/,
    bench/ or examples/."""
    by_dir = {}
    for top in ("src", "bench", "examples"):
        for gcno in glob.glob(os.path.join(build, top, "**", "*.gcno"),
                              recursive=True):
            by_dir.setdefault(os.path.dirname(gcno), []).append(gcno)
    decoder = json.JSONDecoder()
    for objdir, gcnos in sorted(by_dir.items()):
        # Objects with no .gcda never ran; gcov reports them as zeros.
        text = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory",
             objdir, *sorted(gcnos)],
            cwd=objdir, check=True, capture_output=True, text=True).stdout
        pos = 0
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            doc, pos = decoder.raw_decode(text, pos)
            yield doc


def report(build, source):
    src = os.path.realpath(os.path.join(source, "src")) + os.sep
    functions = {}  # (file, line, name) -> entry count over every object
    lines = {}      # (file, line) -> executed in any object
    for doc in gcov_documents(build):
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, source)
            for fn in f["functions"]:
                key = (rel, fn["start_line"], fn["demangled_name"])
                functions[key] = (functions.get(key, 0)
                                  + fn["execution_count"])
            for ln in f["lines"]:
                key = (rel, ln["line_number"])
                lines[key] = lines.get(key, False) or ln["count"] > 0

    never = sorted(k for k, count in functions.items() if count == 0)
    for rel, line, name in never:
        print(f"{rel}:{line}: {name}")
    ran_lines = sum(lines.values())
    print(f"src/ lines executed: {ran_lines} of {len(lines)}")
    print(f"src/ functions never run: {len(never)} of {len(functions)}")


def report_counters(source, touched):
    with open(os.path.join(source, "src", "sim", "counters.hh")) as f:
        table = re.findall(r'X\(\w+,\s*"([^"]+)"', f.read())
    untouched = [name for name in table if name not in touched]
    for name in untouched:
        print(f"counter never touched: {name}")
    print(f"counters touched by damn_bench: "
          f"{len(table) - len(untouched)} of {len(table)}")


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    build = os.path.realpath(argv[1])
    source = os.path.realpath(argv[2])
    touched = exercise(build, source)
    report(build, source)
    report_counters(source, touched)


if __name__ == "__main__":
    main(sys.argv)
