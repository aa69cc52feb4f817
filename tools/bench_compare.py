"""Compares two BENCH files that tools/bench_record.py wrote.

    python3 tools/bench_compare.py OLD.json NEW.json

Prints the package's line count (`src_lines`) of both files, then, for each
workload, every end-to-end metric of the untraced run and every per-layer
metric of the traced run, from both files, with the ratio new/old ("-"
where a file lacks the value or the old value is 0).  It says
whether round 0's outcome counts and, for `eval`, its `.tsv` report's
SHA-256 are the same in both files, and warns first when the two files were
recorded on different hosts or Python versions.  Standard library only.
"""

from __future__ import annotations

import json
import sys


# outputs of the traced run's round 0 that must not change: a row each, for a
# workload where either file records them
INFO_ROWS = ("outcomes_round0", "tsv_sha256")


def _runs(record):
    """(workload, trace) -> the run, in file order."""
    return {(r["workload"], r["trace"]): r for r in record["runs"]}


def _value(run, name):
    metric = (run or {}).get("result", {}).get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, int) or float(v).is_integer():
        return "%d" % v
    return "%.4g" % v


def _ratio(old, new):
    if old is None or new is None or old == 0:
        return "-"
    return "%.3f" % (new / old)


def compare(old, new):
    """The report's lines."""
    lines = []
    for key in ("host", "python"):
        if old.get(key) != new.get(key):
            lines.append("WARNING: %s differs: %r -> %r" % (key, old.get(key), new.get(key)))
    a, b = old.get("src_lines"), new.get("src_lines")
    if a is not None or b is not None:
        lines.append("  %-32s %12s %12s %8s" % ("src_lines", _fmt(a), _fmt(b), _ratio(a, b)))
    old_runs, new_runs = _runs(old), _runs(new)
    workloads = list(dict.fromkeys(w for w, _ in list(old_runs) + list(new_runs)))
    for workload in workloads:
        lines.append("== %s" % workload)
        lines.append("  %-32s %12s %12s %8s" % ("metric", "old", "new", "new/old"))
        for trace in (0, 1):
            o, n = old_runs.get((workload, trace)), new_runs.get((workload, trace))
            names = [r.get("result", {}).get("metrics", {}) for r in (o, n) if r]
            for name in dict.fromkeys(k for m in names for k in m):
                a, b = _value(o, name), _value(n, name)
                lines.append("  %-32s %12s %12s %8s" % (name, _fmt(a), _fmt(b), _ratio(a, b)))
        traced = (old_runs.get((workload, 1)), new_runs.get((workload, 1)))
        for name in INFO_ROWS:
            a, b = [(r or {}).get("info", {}).get(name) for r in traced]
            if a is not None or b is not None:
                lines.append("  %s: %s" % (name, "same" if a == b else "differ"))
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: bench_compare.py OLD.json NEW.json", file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    print("\n".join(compare(*records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
