"""Records one BENCH file: every benchmark workload, untraced and traced.

    python3 tools/bench_record.py --out BENCH_<n>.json [--checkout DIR]

For each workload that DIR/BENCHMARK.json declares, runs the benchmark
command in DIR with `--workload W --seed 1 --seconds <run_seconds>`, once
with `--trace 0` and once with `--trace 1`.  The file keeps the last two
JSON lines of each run (what was run, then the result) and its exit code,
with the Python version, the host, the commit of DIR (`dirty` is true
when tracked files differ from that commit) and `src_lines`, the total lines
of DIR/src/gramgrow/*.py.  DIR defaults to the checkout holding this
script.

Exits 1 if any run exits non-zero, prints no result or reports
`correct: false`.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

SEED = 1


def _git(checkout, *args):
    try:
        done = subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def src_lines(checkout):
    """The total lines of the package's modules in checkout, or None."""
    pkg = os.path.join(checkout, "src", "gramgrow")
    if not os.path.isdir(pkg):
        return None
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                total += len(f.read().splitlines())
    return total


def _json_lines(text):
    out = []
    for line in text.splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            continue
    return out


def run_one(checkout, command, workload, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = _json_lines(done.stdout)
    run = {"workload": workload, "trace": trace, "exit_code": done.returncode}
    if len(lines) >= 2:
        run["info"], run["result"] = lines[-2], lines[-1]
    ok = done.returncode == 0 and run.get("result", {}).get("correct") is True
    if not ok:
        run["stderr_tail"] = done.stderr.splitlines()[-20:]
    return run, ok


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description="record a BENCH file")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--checkout", default=here, help="the checkout to measure")
    ns = ap.parse_args(argv)
    checkout = os.path.abspath(ns.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    record = {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": sys.version,
        "host": platform.node(),
        "seed": SEED,
        "src_lines": src_lines(checkout),
        "run_seconds": bench["run_seconds"],
        "runs": [],
    }
    failed = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            run, ok = run_one(checkout, bench["command"], workload["name"], bench["run_seconds"], trace)
            record["runs"].append(run)
            if not ok:
                failed.append("%s --trace %d" % (workload["name"], trace))
            print("%-10s trace %d: %s" % (workload["name"], trace, "ok" if ok else "FAILED"), file=sys.stderr)
    with open(ns.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    if failed:
        print("bench_record: failed runs: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
