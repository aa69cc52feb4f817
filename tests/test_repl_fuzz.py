"""Seeded random sessions: no command line ends a REPL session, and the eval
subcommand exits 0 or 2 on any input files, never 3.

The lines are drawn from the REPL's command vocabulary over the shipped data
and over broken files: empty, not UTF-8, holding NUL bytes, truncated,
one-pair and malformed pair files, a directory and a missing path.  Every
file the sessions write (`save-learnt`, `eval --out`) lies under tmp_path.
"""

import io
import random

from gramgrow.cli import EXIT_OK, EXIT_RESOURCE, Session, main, run_repl
from gramgrow.resources import data_path

SEED = 20240611
SESSIONS = 150
LINES_PER_SESSION = 10
EVAL_RUNS = 150

SENTENCES = [
    "Sam chases the cat",
    "Sam chases the happy cat",
    "the happy cat",
    "Sam chases happy the cat",
    "cat",
    "Sam don't chases",
    "the zebra",
]

PAIR = "Sam chases the cat\n(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 cat))))\n"

FLAGS = ["learning", "types", "lp", "hfc", "sbl", "training", "unary", "binary", "bogus"]


def _files(tmp_path):
    """name -> path of every input file a line may name."""
    files = {kind: str(data_path("demo.%s" % kind))
             for kind in ("features", "grammar", "lexicon", "model", "labels")}
    files["claws.lexicon"] = str(data_path("claws.lexicon"))
    written = {
        "corpus": "\n".join(SENTENCES[:3]) + "\n",
        "empty": "",
        "one.pairs": PAIR,
        "two.pairs": PAIR + PAIR,
        "odd.pairs": "Sam chases the cat\n",
        "open.pairs": "Sam chases the cat\n(S (NP Sam)\n",
        "empty-tree.pairs": "Sam chases the cat\n()\n",
        "triples": "triple [N +] [V +] 2\n",
        "zero.triples": "triple [N +] [V +] 0\n",
        "cut.grammar": data_path("demo.grammar").read_text()[:400],
        "cut.lexicon": data_path("demo.lexicon").read_text()[:150],
        "cut.features": "feature N + -\nfeature\n",
        "cut.model": "lp LP1 : [SUBCAT *] <",
        "cyclic.lexicon": "lex cat : [N #1 = [A #1]]\n",
    }
    for name, text in written.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        files[name] = str(path)
    for name, data in {"latin1": b"\xffSam chases the cat\n", "nul": b"Sam\x00chases\x00the cat\n"}.items():
        path = tmp_path / name
        path.write_bytes(data)
        files[name] = str(path)
    (tmp_path / "dir").mkdir()
    files["dir"] = str(tmp_path / "dir")
    files["missing"] = str(tmp_path / "missing")
    return files


def _path(rng, files, kind):
    """Often a good file of the given kind, often an empty one, else any."""
    draw = rng.random()
    if draw < 0.4:
        return files[kind]
    if draw < 0.65:
        return files["empty"]
    return rng.choice(list(files.values()))


def _eval_options(rng, files, out_dir):
    words = []
    if rng.random() < 0.5:
        words += ["--test", _path(rng, files, "corpus")]
    if rng.random() < 0.5:
        words += ["--plausible", _path(rng, files, "one.pairs")]
    if rng.random() < 0.5:
        words += ["--random", rng.choice(["2", "2", "0", "-1", "x"]), rng.choice(["2", "0", "3"])]
    if rng.random() < 0.2:
        words += ["--k", rng.choice(["1", "3", "0", "-2", "many"])]
    if rng.random() < 0.2:
        words += ["--seed", rng.choice(["7", "x"])]
    if rng.random() < 0.5:
        words += ["--out", str(out_dir / ("report%d" % rng.randrange(3)))]
    if rng.random() < 0.05:
        words += [rng.choice(["--bogus", "stray"])]
    return words


LOADERS = {
    "load-features": "features",
    "load-grammar": "grammar",
    "load-lexicon": "lexicon",
    "load-model": "model",
    "load-triples": "triples",
    "load-paraphrase": "labels",
    "learn-corpus": "corpus",
    "train-corpus": "corpus",
}

# line kind -> weight
KINDS = {"load": 4, "eval": 3, "bundle": 1, "set": 1, "limits": 1, "save": 1, "other": 1,
         "quote": 1, "sentence": 2}


def _line(rng, files, out_dir):
    kind = rng.choices(list(KINDS), weights=list(KINDS.values()))[0]
    if kind == "load":
        command = rng.choice(list(LOADERS))
        return "%s %s" % (command, _path(rng, files, LOADERS[command]))
    if kind == "eval":
        return "eval " + " ".join(_eval_options(rng, files, out_dir))
    if kind == "bundle":
        return "load-bundle %s" % rng.choice(["demo", "claws", "nope"])
    if kind == "set":
        return "set %s %s" % (rng.choice(FLAGS), rng.choice(["on", "off", "maybe"]))
    if kind == "limits":
        return "limits %s %s" % tuple(rng.choice(["1", "200", "0", "off", "-3", "x"]) for _ in "NM")
    if kind == "save":
        return "save-learnt %s" % (out_dir / "learnt.grammar")
    if kind == "other":
        return rng.choice(["refine-grammar", "flags", "!*parses*", "parse", "bogus command"])
    if kind == "quote":
        command = rng.choice(["parse", "load-grammar", "eval --test", "set", "limits"])
        return '%s "%s' % (command, rng.choice(SENTENCES + list(files.values())))
    return rng.choice(SENTENCES)


def test_random_sessions_never_end(tmp_path):
    files = _files(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rng = random.Random(SEED)
    for n in range(SESSIONS):
        out = io.StringIO()
        session = Session(out=out, seed=7)
        lines = ["limits 1 200"]
        draw = rng.random()
        if draw < 0.65:
            lines.append("load-bundle demo")
        elif draw < 0.85:  # what parsing needs, one by one, and no labels
            lines += ["load-%s %s" % (kind, files[kind]) for kind in ("features", "grammar", "lexicon")]
        lines += [_line(rng, files, out_dir) for _ in range(LINES_PER_SESSION)]
        lines += ["Sam chases the cat", "quit"]
        try:
            code = run_repl(session, lines)
        except Exception as err:  # the session ended
            raise AssertionError("session %d ended on %r: %r" % (n, lines, err)) from None
        assert code == EXIT_OK, lines
        assert "internal error" not in out.getvalue(), lines


def test_random_eval_commands_exit_0_or_2(tmp_path, capsys):
    files = _files(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rng = random.Random(SEED + 1)
    for _ in range(EVAL_RUNS):
        argv = ["--seed", "7", "eval", "--limits", "1", "200"]
        if rng.random() < 0.25:  # what parsing needs, without a bundle or labels
            for kind in ("features", "grammar", "lexicon"):
                argv += ["--" + kind, files[kind]]
        else:
            if rng.random() < 0.5:
                argv += ["--bundle", rng.choice(["demo", "demo", "claws", "nope"])]
            for kind in ("features", "grammar", "lexicon", "model", "labels"):
                if rng.random() < 0.5:
                    argv += ["--" + kind, _path(rng, files, kind)]
        argv += _eval_options(rng, files, out_dir)
        try:
            code = main(argv)
        except SystemExit as exit:  # argparse refuses the command line
            code = exit.code
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_RESOURCE), (argv, err)
        if code == EXIT_RESOURCE:
            assert "error:" in err and "internal error" not in err, (argv, err)
