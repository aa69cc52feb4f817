"""Shows that every output check of the benchmark fails on a corrupted result.

    python3 bench/selftest.py

Runs round 0 of each workload once (seed 1), checks that the untouched
result passes, then corrupts one thing at a time (a flipped verdict, an
altered score, a rule the model forbids, ...) and checks that the check
meant to catch it reports a problem.  Also checks that BENCHMARK.json names
exactly the metrics the runner prints.  Exits non-zero if any check stays
silent.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import _env  # noqa: E402

_env.import_gramgrow()

from gramgrow.chart import ParseTree  # noqa: E402
from gramgrow.grammar import parse_rule_line  # noqa: E402

import refclock  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

SEED = 1
failures = []


def expect(label, problems, fragment):
    hit = [p for p in problems if fragment in p]
    print("%-4s %s%s" % ("ok" if hit else "MISS", label, (": " + hit[0]) if hit else ""))
    if not hit:
        failures.append(label)


def round0(workload):
    timer = run.InputTimer(workload, refclock.Clock(scaled=False))
    timer.install()
    state, _ = run.timed_setup(workload, SEED, 0, timer)
    prep, _, _, records = run.run_round(workload, state, timer)
    timer.uninstall()
    problems, _, _, _ = workload.check(state, prep, records)
    print("%-4s %s round 0 passes untouched" % ("ok" if not problems else "MISS", workload.name))
    if problems:
        failures.append(workload.name + " untouched: " + "; ".join(problems))
    return state, prep, records


def corrupted(workload, state, prep, records, mutate):
    """Apply `mutate`, re-run the check, undo, return the problems."""
    undo = mutate()
    try:
        return workload.check(state, prep, records)[0]
    finally:
        if undo:
            undo()


def setattr_undo(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    return lambda: setattr(obj, name, old)


def add_learnt_undo(grammar, text, registry):
    rule = parse_rule_line(text, registry, origin="learnt")
    grammar.learnt.append(rule)
    grammar._by_id[rule.id] = rule
    return lambda: grammar.remove_learnt(rule.id)


def learn_cases():
    w = workloads.WORKLOADS["learn"]
    state, prep, records = round0(w)
    grammar = prep["session"].grammar
    reg = grammar.registry
    expect("learn: worked example learns nothing", corrupted(
        w, state, prep, records, lambda: setattr_undo(records[0], "learnt", [])), "worked example learnt 0")
    expect("learn: permutation gets a parse", corrupted(
        w, state, prep, records, lambda: setattr_undo(records[1], "n_parses", 1)), "permutation")

    def ntype():
        rid = records[0].learnt[0]
        old = grammar.rule(rid)
        new = parse_rule_line("rule %s : [N +, V -, BAR 2, NTYPE COUNT] -> [N +, V +, BAR 1] [N +, V -, BAR 1]"
                              % rid, reg, origin="learnt")
        grammar.replace_learnt(rid, new)
        return lambda: grammar.replace_learnt(rid, old)

    problems = corrupted(w, state, prep, records, ntype)
    expect("learn: worked example's LHS carries NTYPE", problems, "carries NTYPE under HFC")
    expect("learn: a retained LHS carries a non-head feature", problems, "LHS carries NTYPE")
    expect("learn: a retained rule breaks LP2", corrupted(w, state, prep, records, lambda: add_learnt_undo(
        grammar, "rule *lp : [N -, V -, BAR 2] -> [N -, V -, BAR 2] [N +, V -, BAR 2]", reg)), "violates LP2")
    expect("learn: a retained rule repeats NP1", corrupted(w, state, prep, records, lambda: add_learnt_undo(
        grammar, "rule *np : [N +, V -, BAR 2] -> [DET +] [N +, V -, BAR 1, DET -]", reg)),
        "licensed by an original rule")

    with_tree = next(r for r in records if r.trees)

    def bad_rule():
        rid = with_tree.trees[0].rule_id
        old = with_tree.rules[rid]
        with_tree.rules[rid] = grammar.rule("PP")
        return lambda: with_tree.rules.__setitem__(rid, old)

    expect("learn: a local tree names the wrong rule", corrupted(w, state, prep, records, bad_rule),
           "is not licensed")

    def swapped_leaf():
        tree = with_tree.trees[0]
        leaf = next(n for n in tree.walk() if n.is_leaf)
        bogus = ParseTree(leaf.cat, token="road" if leaf.token != "road" else "cat")
        with_tree.trees[0] = _replace(tree, leaf, bogus)
        return lambda: with_tree.trees.__setitem__(0, tree)

    expect("learn: a leaf is not the input token", corrupted(w, state, prep, records, swapped_leaf),
           "are not the input")
    shutil.rmtree(state.tmp, ignore_errors=True)


def _replace(node, old, new):
    if node is old:
        return new
    if node.is_leaf:
        return node
    return ParseTree(node.cat, rule_id=node.rule_id, children=[_replace(c, old, new) for c in node.children])


def eval_cases():
    w = workloads.WORKLOADS["eval"]
    state, prep, records = round0(w)
    report = prep["report"]
    rec = next(r for r in records if not r.bounded and r.n_parses == 0)
    problems = corrupted(w, state, prep, records, lambda: setattr_undo(rec, "n_parses", 1))
    expect("eval: one flipped verdict disagrees with the CKY recogniser", problems, "recogniser")
    expect("eval: one flipped verdict changes the parsed share", problems, "verdicts give")
    expect("eval: overgeneration fraction altered", corrupted(
        w, state, prep, records, lambda: setattr_undo(report, "overgen_fraction", report.overgen_fraction + 0.01)),
        "overgen")
    scores = report.plausibility_scores

    def altered_score():
        report.plausibility_scores = [scores[0] + 0.001] + scores[1:]
        return lambda: setattr(report, "plausibility_scores", scores)

    expect("eval: one plausibility score altered", corrupted(w, state, prep, records, altered_score),
           "plausibility")
    tsv = prep["tsv"]
    flipped = tsv[:-2] + bytes([tsv[-2] ^ 1]) + tsv[-1:]
    expect("eval: one byte of the .tsv report changed", w.report_problems(tsv, flipped), ".tsv report")
    shutil.rmtree(state.tmp, ignore_errors=True)


def sbl_cases():
    w = workloads.WORKLOADS["sbl-train"]
    state, prep, records = round0(w)
    session = prep["session"]
    expect("sbl-train: store total off by one", corrupted(
        w, state, prep, records, lambda: setattr_undo(session.store, "total", session.store.total + 1)),
        "store total")

    def no_accepts():
        saved = [r.accepted for r in records]
        for r in records:
            r.accepted = 0

        def undo():
            for r, a in zip(records, saved):
                r.accepted = a

        return undo

    expect("sbl-train: judge never accepts", corrupted(w, state, prep, records, no_accepts), "judge accepted 0")
    grammar = session.grammar
    expect("sbl-train: refinement not idempotent", corrupted(w, state, prep, records, lambda: add_learnt_undo(
        grammar, "rule *twice : {[N +, V -, BAR 2], [N -, V +, BAR 2]} -> [DET +] [N +, V -, BAR 1]",
        grammar.registry)), "second refine_grammar")
    shutil.rmtree(state.tmp, ignore_errors=True)


def benchmark_json_cases():
    with open(os.path.join(_env.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = e2e == run.END_TO_END_UNITS and layer == {n: u for n, u, _ in trace.METRICS}
    print("%-4s BENCHMARK.json names exactly the printed metrics" % ("ok" if ok else "MISS"))
    if not ok:
        failures.append("BENCHMARK.json metrics")


def main():
    benchmark_json_cases()
    learn_cases()
    eval_cases()
    sbl_cases()
    if failures:
        print("%d check(s) stayed silent: %s" % (len(failures), "; ".join(failures)))
        return 1
    print("every check caught its corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
