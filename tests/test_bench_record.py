"""tools/bench_record.py runs every workload untraced and traced, keeps the
result lines, and exits non-zero when a run fails or prints no result."""

import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")

FAKE_RUN = """\
import argparse, json, sys
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
ns = ap.parse_args()
if ns.workload == "crash":
    sys.exit(2)
if ns.workload == "silent":
    sys.exit(0)
print("a log line")
print(json.dumps({"workload": ns.workload, "trace": int(ns.trace), "seconds": ns.seconds}))
print(json.dumps({"correct": ns.workload != "wrong", "attempted": 3, "failed": 0}))
"""


def _record(tmp_path, workloads):
    (tmp_path / "bench").mkdir(exist_ok=True)
    (tmp_path / "bench" / "run.py").write_text(FAKE_RUN)
    bench = {
        "command": [sys.executable, "bench/run.py"],
        "run_seconds": 2,
        "workloads": [{"name": w} for w in workloads],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, TOOL, "--out", str(out), "--checkout", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    return done.returncode, json.loads(out.read_text())


def test_records_each_workload_untraced_and_traced(tmp_path):
    code, record = _record(tmp_path, ["learn", "eval"])
    assert code == 0
    assert record["python"] == sys.version and record["seed"] == 1
    assert [(r["workload"], r["trace"], r["exit_code"]) for r in record["runs"]] == [
        ("learn", 0, 0), ("learn", 1, 0), ("eval", 0, 0), ("eval", 1, 0),
    ]
    for run in record["runs"]:
        assert run["info"] == {"workload": run["workload"], "trace": run["trace"], "seconds": "2"}
        assert run["result"]["correct"] is True


def test_a_failed_run_fails_the_record(tmp_path):
    for bad in ("crash", "silent", "wrong"):
        code, record = _record(tmp_path, ["learn", bad])
        assert code == 1, bad
        assert len(record["runs"]) == 4
