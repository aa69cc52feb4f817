"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.
"""

import itertools
import math
import random
import time

import pytest

from gramgrow.chart import ParseTree, SessionFlags, harvest_local_trees, parse
from gramgrow.evaluate import gen_random, match_parse, overgen
from gramgrow.fs import (
    Category,
    FeatureRegistry,
    equal,
    expand,
    parse_fs,
    subsumes,
    unify,
    unify_cat,
)
from gramgrow.grammar import Grammar, SupportRecord, parse_rule_line
from gramgrow.model import match, parse_pattern
from gramgrow.refine import RefineParams, refine_grammar
from gramgrow.resources import data_path, load_bundle
from gramgrow.scoring import TripleStore, geo_mean, score_tree, train, train_local_trees

from genfs import GEN_REGISTRY, random_category, random_extension, random_fs


def _ok(n, text):
    print("ACCEPTANCE %-2d PASS  %s" % (n, text))


@pytest.fixture(scope="module")
def demo():
    registry, _, lexicon, model, labels = load_bundle("demo")
    return registry, lexicon, labels, model


def _fresh_grammar(registry):
    g = Grammar(registry)
    g.load_rules(data_path("demo.grammar"))
    return g


def _learn(demo, sentence, lp=True, types=True, hfc=False, data=False, store=None, unary=False):
    registry, lexicon, labels, model = demo
    g = _fresh_grammar(registry)
    res = parse(
        sentence.split(),
        g,
        lexicon,
        model,
        store,
        flags=SessionFlags(
            learning=True, lp=lp, types=types, hfc=hfc, data=data, unary_super=unary
        ),
    )
    return res, g


# 1 ---------------------------------------------------------------------------


def test_criterion_1_worked_example(demo):
    registry, lexicon, labels, model = demo
    started = time.time()
    res, _ = _learn(demo, "Sam chases the happy cat", hfc=False)
    elapsed = time.time() - started
    assert res.n_parses == 1
    assert len(res.learnt) == 1
    rule = res.learnt[0]
    got = {labels.paraphrase(d) for d in rule.lhs.disjuncts}
    assert got == {"AP", "NP", "Adj", "N1"}
    assert labels.paraphrase_cat(rule.rhs(1)) == "Adj"
    assert labels.paraphrase_cat(rule.rhs(2)) == "N1"
    assert elapsed < 5.0
    _ok(1, "worked example: 1 rule {AP,NP,Adj,N1} -> Adj N1, 1 parse, %.2fs" % elapsed)


# 2 ---------------------------------------------------------------------------


def test_criterion_2_hfc_effect(demo):
    res, _ = _learn(demo, "Sam chases the happy cat", hfc=True)
    assert len(res.learnt) == 1
    rule = res.learnt[0]
    for d in rule.lhs.disjuncts:
        assert d.get("NTYPE") is None
    _ok(2, "HFC on: learnt LHS carries no NTYPE binding")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_model_monotonicity(demo):
    counts = {}
    for name, lp, types in [
        ("none", False, False),
        ("lp", True, False),
        ("types", False, True),
        ("full", True, True),
    ]:
        res, _ = _learn(demo, "Sam chases the happy cat", lp=lp, types=types)
        counts[name] = len(res.learnt)
    assert counts["none"] > counts["lp"] >= counts["full"] == 1
    assert counts["types"] < counts["none"]
    _ok(
        3,
        "rule counts none/lp/types/full = %d/%d/%d/%d (reference run: 15/9/6/1)"
        % (counts["none"], counts["lp"], counts["types"], counts["full"]),
    )


# 4 ---------------------------------------------------------------------------


def test_criterion_4_ungrammaticality(demo):
    res, _ = _learn(demo, "Sam chases happy the cat")
    assert res.n_parses == 0
    assert res.learnt == []
    _ok(4, "ungrammatical input: 0 rules, 0 parses")


# 5 ---------------------------------------------------------------------------


def test_criterion_5_pp_attachment(demo):
    registry, lexicon, labels, model = demo
    res, g = _learn(demo, "Sam chases the cat down the road", hfc=True)
    pp_pat = parse_pattern("[N -, V -, BAR 2]", registry)
    v2_pat = parse_pattern("[N -, V +, BAR 2]", registry)
    nominal = parse_pattern("[N +, V -]", registry)
    verbal = parse_pattern("[N -, V +]", registry)
    nominal_attach = False
    verbal_attach = False
    for rule in res.learnt:
        if rule.arity != 2 or not match(pp_pat, rule.rhs(2)):
            continue
        if any(match(nominal, Category((d,))) for d in rule.lhs.disjuncts):
            nominal_attach = True
        if any(match(verbal, Category((d,))) for d in rule.lhs.disjuncts):
            verbal_attach = True
    assert nominal_attach and verbal_attach
    for rule in res.learnt:
        for i in range(1, rule.arity + 1):
            for j in range(i + 1, rule.arity + 1):
                assert not (match(v2_pat, rule.rhs(i)) and match(pp_pat, rule.rhs(j)))
    _ok(5, "PP attached under nominal and verbal projections; LP4 shape respected")


# 6 ---------------------------------------------------------------------------


def _pretrained_store(demo, omega):
    registry, lexicon, labels, model = demo
    store = TripleStore(delta=0.001, omega=omega)
    g = _fresh_grammar(registry)
    for line in [
        "Sam chases the cat",
        "The cat chases Sam",
        "The cat down the road chases Sam",
        "Sam down the road chases the happy cat",
    ]:
        res = parse(line.split(), g, lexicon, flags=SessionFlags(learning=False))
        if res.trees:
            train(store, res.trees)
        else:
            train_local_trees(store, harvest_local_trees(res.chart))
    return store


def test_criterion_6_omega_monotonicity(demo):
    counts = []
    sweep = [round(0.01 * i, 2) for i in range(1, 11)]
    for omega in sweep:
        store = _pretrained_store(demo, omega)
        res, _ = _learn(
            demo, "Sam chases the cat down the road", hfc=True, data=True, store=store
        )
        counts.append(len(res.learnt))
    for earlier, later in zip(counts, counts[1:]):
        assert earlier >= later
    store = _pretrained_store(demo, 1.0)
    res, _ = _learn(demo, "Sam chases the cat down the road", hfc=True, data=True, store=store)
    assert len(res.learnt) == 0
    _ok(6, "omega sweep %s -> counts %s, 0 at omega=1" % (sweep, counts))


# 7 ---------------------------------------------------------------------------


def test_criterion_7_plausibility_matcher():
    assert match_parse(list("abcd"), list("cabc")) == 0.75
    assert match_parse(list("abcd"), list("abcd")) == 1.0
    assert match_parse(list("xy"), list("abc")) == 0.0
    _ok(7, "match_parse: worked example 3/4, identity 1.0, disjoint 0.0")


# 8 ---------------------------------------------------------------------------


def test_criterion_8_unification_algebra():
    rng = random.Random(71)
    structures = [random_fs(rng) for _ in range(80)]
    # preorder
    for d in structures:
        assert subsumes(d, d)
    transitive_hits = 0
    for _ in range(500):
        a, b, c = (rng.choice(structures) for _ in range(3))
        if subsumes(a, b) and subsumes(b, c):
            assert subsumes(a, c)
            transitive_hits += 1
    # LUB, commutativity, associativity, idempotency
    done = 0
    while done < 500:
        a, b = random_fs(rng), random_fs(rng)
        r = unify(a, b)
        r2 = unify(b, a)
        assert (r is None) == (r2 is None)
        if r is None:
            continue
        done += 1
        assert equal(r, r2)
        assert subsumes(a, r) and subsumes(b, r)
        e = random_extension(rng, r)
        assert subsumes(r, e)
        assert equal(unify(a, a), a)
        c = random_fs(rng)
        bc = unify(b, c)
        left = unify(r, c)
        right = unify(a, bc) if bc is not None else None
        assert (left is None) == (right is None)
        if left is not None:
            assert equal(left, right)
    # disjunction laws at the denotation level + the cross-product oracle
    def denote(cat):
        out = []
        for e in expand(cat, GEN_REGISTRY, cap=None):
            if not any(equal(e, o) for o in out):
                out.append(e)
        return out

    def same(c1, c2):
        d1, d2 = denote(c1), denote(c2)
        covered = lambda x, ys: any(subsumes(y, x) for y in ys)
        return all(covered(x, d2) for x in d1) and all(covered(x, d1) for x in d2)

    checked = 0
    while checked < 300:
        c1 = random_category(rng, max_disjuncts=2)
        c2 = random_category(rng, max_disjuncts=2)
        if len(expand(c1, GEN_REGISTRY)) > 8 or len(expand(c2, GEN_REGISTRY)) > 8:
            continue
        checked += 1
        got = unify_cat(c1, c2)
        want = []
        for x in expand(c1, GEN_REGISTRY):
            for y in expand(c2, GEN_REGISTRY):
                u = unify(x, y)
                if u is not None:
                    want.append(u)
        assert same(got, Category(want))
    _ok(8, "500-case subsumption/LUB/associativity suites and the expansion oracle hold")


# 9 ---------------------------------------------------------------------------


def test_criterion_9_lookup_oracle():
    reg = FeatureRegistry.from_text("feature CAT S NP VP V DET N PP")
    a = lambda label: parse_fs("[CAT %s]" % label, reg).disjuncts[0]
    store = TripleStore(delta=0.001, omega=0.35)
    for m, d, f in [
        ("S", "NP", 2),
        ("S", "VP", 2),
        ("VP", "V", 2),
        ("VP", "NP", 1),
        ("NP", "DET", 1),
        ("NP", "N", 1),
    ]:
        store.add(a(m), a(d), f)
    c = lambda label: Category((a(label),))
    assert store.lookup(c("S"), c("NP")) == 2 / 9
    assert store.lookup(c("VP"), c("NP")) == 1 / 9
    assert store.lookup(c("S"), c("PP")) == store.delta

    labels = ["S", "NP", "VP", "V", "DET", "N", "PP"]
    rng = random.Random(73)

    def rand_tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return ParseTree(c(rng.choice(labels)), token="w")
        kids = [rand_tree(depth - 1) for _ in range(rng.randint(1, 2))]
        return ParseTree(c(rng.choice(labels)), rule_id="r", children=kids)

    def oracle(tree):
        if tree.is_leaf:
            return None
        best = 0.0
        for m in tree.cat.disjuncts:
            opts = []
            for child in tree.children:
                sub = oracle(child)
                opts.append(
                    [
                        store.lookup(Category((m,)), Category((d,)))
                        * (1.0 if sub is None else sub)
                        for d in child.cat.disjuncts
                    ]
                )
            for combo in itertools.product(*opts):
                best = max(best, geo_mean(list(combo)))
        return best

    for _ in range(200):
        t = rand_tree(rng.randint(1, 4))
        if t.is_leaf:
            continue
        got = score_tree(store, t, reg)
        want = oracle(t)
        assert math.isclose(got, want, rel_tol=1e-12)
    _ok(9, "lookup fractions 2/9, 1/9, delta; score_tree matches the recursive oracle")


# 10 --------------------------------------------------------------------------


def test_criterion_10_refinement(demo):
    registry, lexicon, labels, model = demo
    store = _pretrained_store(demo, 0.35)
    g = _fresh_grammar(registry)
    res = parse(
        "Sam chases the happy cat".split(),
        g,
        lexicon,
        model,
        flags=SessionFlags(learning=True, hfc=False),
    )
    assert len(res.learnt) == 1
    rule_id = res.learnt[0].id
    # additional adjective exposure: parse with the learnt rule and train
    res2 = parse("Sam chases the happy happy cat".split(), g, lexicon, model,
                 flags=SessionFlags(learning=False))
    assert res2.n_parses == 1
    train(store, res2.trees)
    report = refine_grammar(store, g, RefineParams(), registry)
    assert any("Refining" in line and "score: 0." in line for line in report)
    refined = g.rule(rule_id)
    assert len(refined.lhs) == 1
    assert labels.paraphrase_cat(refined.lhs) == "N1"
    assert labels.paraphrase_cat(refined.rhs(1)) == "Adj"
    assert labels.paraphrase_cat(refined.rhs(2)) == "N1"
    # idempotence
    assert refine_grammar(store, g, RefineParams(), registry) == []
    # prune_unsupported equals the reachability oracle
    rng = random.Random(79)
    g2 = Grammar(registry)
    ids = ["*r%d" % i for i in range(8)]
    deps = {}
    for i, rid in enumerate(ids):
        pool = ids[:i]
        daughters = tuple(
            rng.choice(pool) if pool and rng.random() < 0.6 else SupportRecord.LEXICAL
            for _ in range(2)
        )
        deps[rid] = daughters
        rule = parse_rule_line(
            "rule %s : [N +, BAR %d, PER %d] -> [N %s, BAR %d] [V +]"
            % (rid, i % 3, (i // 3) + 1, "+" if i % 2 else "-", (i + 1) % 3),
            registry,
            origin="learnt",
        )
        assert g2.add_learnt(rule, SupportRecord(rid, daughters)) is rule
    victim = ids[0]
    g2.remove_learnt(victim)
    from gramgrow.refine import prune_unsupported

    removed = set(prune_unsupported(g2))
    dead = {victim}
    changed = True
    while changed:
        changed = False
        for rid in ids:
            if rid not in dead and any(
                d in dead for d in deps[rid] if d != SupportRecord.LEXICAL
            ):
                dead.add(rid)
                changed = True
    assert removed == dead - {victim}
    _ok(10, "refined to N1 -> Adj N1; refine idempotent; support pruning matches oracle")


# 11 --------------------------------------------------------------------------


def test_criterion_11_evaluation_determinism(demo):
    registry, lexicon, labels, model = demo
    started = time.time()
    a = gen_random(lexicon, 6, 100, seed=5)
    b = gen_random(lexicon, 6, 100, seed=5)
    assert a == b
    empty = Grammar(registry)
    assert overgen(empty, lexicon, a) == 0.0

    # micro-pipeline: train on 10 toy sentences, evaluate on held-out + random
    store = TripleStore(delta=0.001, omega=0.35)
    g = _fresh_grammar(registry)
    train_sents = [
        "Sam chases the cat",
        "The cat chases Sam",
        "Sam chases the happy cat",
        "the happy cat chases Sam",
        "Sam chases the cat down the road",
        "The cat down the road chases Sam",
        "the road chases the cat",
        "Sam chases the road",
        "the cat chases the cat",
        "the happy happy cat chases Sam",
    ]
    flags = SessionFlags(learning=True, hfc=True)
    for line in train_sents:
        res = parse(line.split(), g, lexicon, model, flags=flags)
        if res.trees:
            train(store, res.trees)
    held_out = [
        "Sam chases the happy road",
        "the happy road chases Sam",
        "The road down the road chases the happy happy cat",
        "Sam chases Sam",
        "the cat chases the happy cat",
        "happy the cat chases Sam",
        "Sam the cat chases",
        "down the road",
        "the cat down the road chases the cat",
        "Sam chases",
    ]
    from gramgrow.chart import ParserLimits
    from gramgrow.evaluate import undergen

    bounds = ParserLimits(1, 3000)
    parsed_fraction = undergen(g, lexicon, held_out, limits=bounds)
    random_strings = gen_random(lexicon, 6, 20, seed=9)
    over = overgen(g, lexicon, random_strings, limits=bounds, model=model)
    elapsed = time.time() - started
    assert 0.0 <= parsed_fraction <= 1.0
    assert 0.0 <= over <= 1.0
    assert elapsed < 60.0
    _ok(
        11,
        "deterministic random strings; zero-rule overgen 0.0; pipeline %.1fs "
        "(held-out %.2f, random %.2f)" % (elapsed, parsed_fraction, over),
    )
