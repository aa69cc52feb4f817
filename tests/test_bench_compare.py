"""tools/bench_compare.py prints both files' metrics per workload with their
ratio, says whether round 0's outcomes and report hash agree, and warns when
the files come from different hosts or Pythons.  Both it and
tools/bench_record.py carry the package's line count, `src_lines`."""

import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_compare.py")


def _run(workload, trace, metrics, outcomes=None, tsv=None):
    info = {"workload": workload, "trace": trace}
    if outcomes is not None:
        info["outcomes_round0"] = outcomes
    if tsv is not None:
        info["tsv_sha256"] = tsv
    return {
        "workload": workload,
        "trace": trace,
        "exit_code": 0,
        "info": info,
        "result": {"correct": True, "metrics": {k: {"unit": "x", "value": v} for k, v in metrics.items()}},
    }


def _record(host, per_s, unify_calls, parses):
    return {
        "host": host,
        "python": "3.11.7",
        "runs": [
            _run("learn", 0, {"sentences_per_s": per_s, "setup_s": 0.0}),
            _run("learn", 1, {"fs.unify.calls": unify_calls}, {"parses": parses}),
        ],
    }


def _compare(tmp_path, old, new):
    paths = []
    for name, record in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        paths.append(str(path))
    done = subprocess.run([sys.executable, TOOL, *paths], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


def test_prints_each_metric_of_both_files_with_the_ratio(tmp_path):
    rows = _compare(tmp_path, _record("vm", 80.0, 1642, 26), _record("vm", 120.0, 821, 26))
    assert rows == [
        ["==", "learn"],
        ["metric", "old", "new", "new/old"],
        ["sentences_per_s", "80", "120", "1.500"],
        ["setup_s", "0", "0", "-"],
        ["fs.unify.calls", "1642", "821", "0.500"],
        ["outcomes_round0:", "same"],
    ]


def test_warns_when_the_host_differs_and_notes_changed_outcomes(tmp_path):
    rows = _compare(tmp_path, _record("vm", 80.0, 1642, 26), _record("other", 80.5, 1642, 25))
    assert rows[0] == ["WARNING:", "host", "differs:", "'vm'", "->", "'other'"]
    assert ["sentences_per_s", "80", "80.5", "1.006"] in rows
    assert rows[-1] == ["outcomes_round0:", "differ"]


def _eval_record(tsv):
    record = _record("vm", 80.0, 1642, 26)
    record["runs"] += [
        _run("eval", 0, {"sentences_per_s": 180.0}, tsv=tsv),
        _run("eval", 1, {"fs.clashes.calls": 45076}, {"parses": 36}, tsv=tsv),
    ]
    return record


def test_notes_whether_the_eval_report_hash_is_the_same(tmp_path):
    same = _compare(tmp_path, _eval_record("7eb4ce38"), _eval_record("7eb4ce38"))
    assert same[same.index(["==", "eval"]):] == [
        ["==", "eval"],
        ["metric", "old", "new", "new/old"],
        ["sentences_per_s", "180", "180", "1.000"],
        ["fs.clashes.calls", "45076", "45076", "1.000"],
        ["outcomes_round0:", "same"],
        ["tsv_sha256:", "same"],
    ]
    # no row for a workload whose runs record no hash
    assert same[:same.index(["==", "eval"])][-1] == ["outcomes_round0:", "same"]
    differ = _compare(tmp_path, _eval_record("7eb4ce38"), _eval_record("86b54e61"))
    assert differ[-1] == ["tsv_sha256:", "differ"]
    # one file without the hash differs from one with it
    older = _eval_record("7eb4ce38")
    for run in older["runs"]:
        run["info"].pop("tsv_sha256", None)
    assert _compare(tmp_path, older, _eval_record("7eb4ce38"))[-1] == ["tsv_sha256:", "differ"]


def test_records_and_prints_the_package_line_count(tmp_path):
    from test_bench_record import _record as record_checkout

    pkg = tmp_path / "src" / "gramgrow"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not\na module\n")
    code, recorded = record_checkout(tmp_path, ["learn"])
    assert code == 0 and recorded["src_lines"] == 4
    old, new = _record("vm", 80.0, 1642, 26), _record("vm", 80.0, 1642, 26)
    old["src_lines"], new["src_lines"] = 3728, 3678
    rows = _compare(tmp_path, old, new)
    assert rows[:2] == [["src_lines", "3728", "3678", "0.987"], ["==", "learn"]]
    # a file without the count prints "-" for it
    del old["src_lines"]
    assert _compare(tmp_path, old, new)[0] == ["src_lines", "-", "3678", "-"]
