"""`tools/digest.py`: the outputs of the benchmark workloads, pinned."""

import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "digest.py")
# the digests at seed 1, rounds 0-2; a change that means to change an output
# writes this file again and says which entries moved
PINNED = os.path.join(ROOT, "tests", "digest_seed1.json")


def _tool():
    spec = importlib.util.spec_from_file_location("digest_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_agree_under_two_hash_seeds_and_equal_the_pinned_file(tmp_path):
    runs = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / ("digest-%s.json" % hash_seed)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        cmd = [sys.executable, TOOL, "--seeds", "1", "--rounds", "0-2", "--out", str(out)]
        runs.append((out, subprocess.Popen(cmd, cwd=ROOT, env=env)))
    for _, proc in runs:
        assert proc.wait(timeout=300) == 0
    first, second = (json.loads(out.read_text()) for out, _ in runs)
    with open(PINNED, encoding="utf-8") as f:
        pinned = json.load(f)
    tool = _tool()
    assert tool.compare(first, second) == []
    assert tool.compare(first, pinned) == []
    assert len(pinned) == 79 and "eval/s1/r0/tsv" in pinned and "learn/s1/r2/edges" in pinned
    assert "bundle/demo/printed" in pinned and "bundle/claws/printed" in pinned and "reader/values" in pinned
    for name in ("learn", "eval", "sbl-train"):
        assert "%s/s1/r2/scores" % name in pinned
    for what in ("repl", "learnt_ids", "save_learnt", "support"):
        assert "unary/%s" % what in pinned


def test_compare_names_the_entries_that_differ(tmp_path):
    with open(PINNED, encoding="utf-8") as f:
        pinned = json.load(f)
    changed = dict(pinned)
    changed["eval/s1/r1/tsv"] = "0" * 64
    del changed["learn/s1/r0/repl"]
    paths = []
    for name, entries in (("a.json", pinned), ("b.json", changed)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(entries))
    tool = _tool()
    out = io.StringIO()
    with redirect_stdout(out):
        code = tool.main(["--compare", str(paths[0]), str(paths[1])])
    assert code == 1
    assert out.getvalue().splitlines() == [
        "differs: eval/s1/r1/tsv",
        "differs: learn/s1/r0/repl",
        "2 of 79 entries differ",
    ]
    with redirect_stdout(io.StringIO()):
        assert tool.main(["--compare", str(paths[0]), str(paths[0])]) == 0
