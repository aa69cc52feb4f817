"""Digests of what the program writes, for checking that a change keeps it
byte for byte.

    python3 tools/digest.py --out FILE [--checkout DIR] [--seeds 1,2,3] [--rounds 0-2] [--check]
    python3 tools/digest.py --compare A.json B.json

For each workload of DIR/bench/workloads.py, each seed and each round,
sets the round up, prepares and runs it as `bench/run.py` does (untimed),
and records the sha256 of each artefact:

* `repl`: the session's REPL text (the round's temporary directory read
  as `<tmp>`), and `learnt_ids`: the learnt rule ids in order;
* `save_learnt`: the `save-learnt` bytes, and `rules`: `format_rule` of
  every rule, original then learnt;
* `tsv` and `txt`: the eval report files (`eval` only), and `triples`:
  the saved triple store (`sbl-train` only);
* `outcomes`: the round's parse, learnt-rule and rejection counts; with
  `--check` also `check`: all that the workload's check returns (the
  problems found, the operations attempted and failed, and the outcome
  counts, which round 0 reports as `outcomes_round0`).  The check runs the
  benchmark's oracle, which takes most of the time, so it is an option;
* `edges`: every parse that the workload's per-input entry point made,
  set-up's included: its tokens, then per edge its id, kind, rule, span,
  children, bad_reason and built rule id.

It also records, for each shipped bundle, `bundle/<name>/printed`: the
sha256 of `format_rule` of every rule, then `print_fs` of every lexicon
entry, model pattern and label, in the order the bundle holds them; and
`unary/<artefact>` for one unbounded learning session on the demo bundle
(unary super rules on, `limits off off`, "the happy cat chases Sam", then
`!*parses*` and `save-learnt`): its `repl` text, `learnt_ids`,
`save_learnt` bytes and `support` records, from a parse that extracts
every tree of a learning chart.

FILE maps `<workload>/s<seed>/r<round>/<artefact>` to a hex digest.  DIR
defaults to the checkout holding this script, and gramgrow is imported
from DIR/src only, so the digests of two checkouts can be compared.
`--compare` prints every entry that differs or that only one file holds,
and exits 1 if there is one.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLES = ("demo", "claws")


def _sha(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _kind(edge):
    if edge.is_lexical:
        return "lex"
    return "inactive" if edge.is_inactive else "active"


class _Parses:
    """Wraps the workload's per-input entry point, as `bench/run.py`'s
    timer does: keeps a `Record` of each result for the workload's check,
    and feeds each parse's edge sequence to a hash."""

    def __init__(self, workload, cli, evaluate, record_class):
        owner_name, attr = workload.timer_target
        self.owner = cli.Session if owner_name == "Session" else evaluate
        self.attr = attr
        self.original = vars(self.owner)[attr]
        self.per_sentence = owner_name == "Session"
        self.record_class = record_class
        self.records = []
        self.edges = hashlib.sha256()

    def install(self):
        original, record = self.original, self.record_class

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            if self.per_sentence:
                session, tokens = args[0], args[1].split()
                training = session.flags.training and session.store is not None
                self.records.append(record(tokens, result, session.grammar, training))
            else:
                tokens = list(args[0])
                self.records.append(record(tokens, result, args[1], False))
            self._feed(tokens, result)
            return result

        setattr(self.owner, self.attr, recorded)

    def uninstall(self):
        setattr(self.owner, self.attr, self.original)

    def take(self):
        records, self.records = self.records, []
        return records

    def _feed(self, tokens, result):
        lines = ["parse %s" % " ".join(tokens)]
        for e in result.chart.edges if result.chart is not None else ():
            built = e.built_rule.id if e.built_rule is not None else None
            lines.append("%d %s %s %d..%d %s %s %s" % (
                e.id, _kind(e), e.rule_id, e.start, e.end,
                ",".join(map(str, e.children)), e.bad_reason, built,
            ))
        self.edges.update(("\n".join(lines) + "\n").encode("utf-8"))


def _round(workload, parses, seed, r, check):
    """The digests of one round of one workload."""
    from gramgrow.grammar import format_rule
    from workloads import _outcomes

    out = {}
    parses.edges = hashlib.sha256()
    state = workload.setup(seed, r)
    try:
        state.pretrain_pairs = sum(rec.pairs for rec in parses.take())
        prep = workload.prepare(state)
        workload.run(state, prep)
        records = parses.take()
        out["outcomes"] = _sha(json.dumps(_outcomes(records), sort_keys=True))
        if check:
            problems, attempted, failed, outcomes = workload.check(state, prep, records)
            out["check"] = _sha(json.dumps(
                {"problems": problems, "attempted": attempted, "failed": failed, "outcomes": outcomes},
                sort_keys=True,
            ))
        session = prep.get("session") or state.base
        grammar = session.grammar
        out["repl"] = _sha(session.out.getvalue().replace(state.tmp, "<tmp>"))
        out["learnt_ids"] = _sha("\n".join(rule.id for rule in grammar.learnt))
        saved = state.path("digest.learnt")
        grammar.save_learnt(saved)
        out["save_learnt"] = _sha(_read(saved))
        out["rules"] = _sha("\n".join(format_rule(rule, grammar.registry) for rule in grammar.rules))
        if "out" in prep:
            out["tsv"] = _sha(_read(prep["out"] + ".tsv"))
            out["txt"] = _sha(_read(prep["out"] + ".txt"))
        if session.store is not None:
            triples = state.path("digest.triples")
            session.store.save(triples, session.registry)
            out["triples"] = _sha(_read(triples))
        out["edges"] = parses.edges.hexdigest()
    finally:
        shutil.rmtree(state.tmp, ignore_errors=True)
    return out


def _bundle(name):
    """The digest of a shipped bundle as the program reads it."""
    from gramgrow.fs import print_fs
    from gramgrow.grammar import format_rule
    from gramgrow.resources import load_bundle

    registry, grammar, lexicon, model, labels = load_bundle(name)
    texts = [format_rule(rule, registry) for rule in grammar.rules]
    values = [entry for entries in lexicon.entries.values() for entry in entries]
    if model is not None:
        values += [p.fs for rule in model.lp_rules for p in (rule.left, rule.right)]
        values += [pattern.fs for pattern, _ in model.type_rows]
    values += [entry.pattern for entry in labels.entries]
    texts += [print_fs(value, registry) for value in values]
    return _sha("\n".join(texts))


UNARY_SESSION = (
    "load-bundle demo", "set learning on", "set hfc on", "set unary on", "limits off off",
    "the happy cat chases Sam", "!*parses*",
)


def _unary():
    """The digests of the unbounded unary learning session."""
    from gramgrow.cli import Session, run_repl

    tmp = tempfile.mkdtemp(prefix="gramgrow-digest-")
    try:
        saved = os.path.join(tmp, "unary.learnt")
        session = Session(out=io.StringIO())
        run_repl(session, UNARY_SESSION + ("save-learnt %s" % saved,))
        grammar = session.grammar
        return {
            "repl": _sha(session.out.getvalue().replace(tmp, "<tmp>")),
            "learnt_ids": _sha("\n".join(rule.id for rule in grammar.learnt)),
            "save_learnt": _sha(_read(saved)),
            "support": _sha("\n".join("%s %r" % kv for kv in grammar.support.items())),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def digest(checkout, seeds, rounds, check=False):
    """{entry: sha256} over every workload, seed and round."""
    sys.path.insert(0, os.path.join(checkout, "bench"))
    import _env

    _env.import_gramgrow()
    from gramgrow import cli, evaluate
    import workloads

    entries = {}
    for name, workload in workloads.WORKLOADS.items():
        parses = _Parses(workload, cli, evaluate, workloads.Record)
        parses.install()
        try:
            for seed in seeds:
                for r in rounds:
                    for what, value in _round(workload, parses, seed, r, check).items():
                        entries["%s/s%d/r%d/%s" % (name, seed, r, what)] = value
        finally:
            parses.uninstall()
    for name in BUNDLES:
        entries["bundle/%s/printed" % name] = _bundle(name)
    for what, value in _unary().items():
        entries["unary/%s" % what] = value
    return entries


def compare(a, b):
    """The entries that differ between two digest maps, or that one lacks."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def _ints(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="digests of gramgrow's outputs over the benchmark workloads")
    ap.add_argument("--checkout", default=HERE)
    ap.add_argument("--seeds", default="1", help="e.g. 1,2,3 or 1-3")
    ap.add_argument("--rounds", default="0-2", help="e.g. 0-2")
    ap.add_argument("--out", help="the JSON file to write; - for standard output")
    ap.add_argument("--check", action="store_true", help="digest the workloads' checks too")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ns = ap.parse_args(argv)
    if ns.compare:
        maps = []
        for path in ns.compare:
            with open(path, encoding="utf-8") as f:
                maps.append(json.load(f))
        differ = compare(*maps)
        for key in differ:
            print("differs: %s" % key)
        print("%d of %d entries differ" % (len(differ), len(set(maps[0]) | set(maps[1]))))
        return 1 if differ else 0
    if not ns.out:
        ap.error("give --out or --compare")
    entries = digest(os.path.abspath(ns.checkout), _ints(ns.seeds), _ints(ns.rounds), ns.check)
    text = json.dumps(entries, indent=1, sort_keys=True) + "\n"
    if ns.out == "-":
        sys.stdout.write(text)
    else:
        with open(ns.out, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
