import random

import pytest

from gramgrow.fs import FeatureRegistry, equal_cat, parse_fs
from gramgrow.grammar import Grammar, SupportRecord, parse_rule_line
from gramgrow.refine import (
    RefineParams,
    prune_low_score,
    prune_unsupported,
    refine_grammar,
    refine_lhs,
)
from gramgrow.scoring import TripleStore

REG = FeatureRegistry.from_text("feature CAT S NP VP V DET N A\nfeature BAR 0 1 2")


def afs(text):
    return parse_fs(text, REG).disjuncts[0]


def learnt(reg_text, rid="*binary1"):
    return parse_rule_line(reg_text, REG, origin="learnt")


@pytest.fixture()
def store():
    st = TripleStore(delta=0.001, omega=0.35)
    # N1-flavoured mothers dominate A and N daughters; NP mothers do not
    st.add(afs("[CAT N, BAR 1]"), afs("[CAT A, BAR 1]"), 2)
    st.add(afs("[CAT N, BAR 1]"), afs("[CAT N, BAR 1]"), 2)
    st.add(afs("[CAT NP, BAR 2]"), afs("[CAT DET]"), 1)
    return st


def adj_noun_rule():
    return learnt(
        "rule *binary1 : {[CAT A, BAR 1], [CAT A, BAR 2], [CAT N, BAR 1], [CAT N, BAR 2]}"
        " -> [CAT A, BAR 1] [CAT N, BAR 1]"
    )


def test_refine_lhs_picks_unique_max(store):
    rule = adj_noun_rule()
    refined, winner, score = refine_lhs(store, rule, REG)
    assert winner is not None
    assert equal_cat(refined.lhs, parse_fs("[CAT N, BAR 1]", REG))
    assert score > 0
    assert refined.id == rule.id and refined.arity == rule.arity
    for i in (1, 2):
        assert equal_cat(refined.rhs(i), rule.rhs(i))


def test_refine_lhs_all_tied_unchanged():
    st = TripleStore()
    rule = adj_noun_rule()
    refined, winner, _ = refine_lhs(st, rule, REG)  # empty store: all delta
    assert winner is None
    assert equal_cat(refined.lhs, rule.lhs)


def test_refine_lhs_non_disjunctive_unchanged(store):
    rule = learnt("rule *u1 : [CAT N, BAR 2] -> [CAT N, BAR 1]")
    refined, winner, _ = refine_lhs(store, rule, REG)
    assert winner is None


def test_prune_low_score_bounds(store):
    g = Grammar(REG)
    g.add_learnt(adj_noun_rule())
    assert prune_low_score(store, g, 1.0 - 1e-9, REG) == ["*binary1"]
    g2 = Grammar(REG)
    g2.add_learnt(adj_noun_rule())
    assert prune_low_score(store, g2, 0.0, REG) == []  # scores >= delta > 0


def test_prune_low_score_never_touches_originals(store):
    g = Grammar(REG)
    g.add_original(learnt("rule G1 : [CAT S] -> [CAT NP] [CAT VP]"))
    removed = prune_low_score(store, g, 1.0 - 1e-9, REG)
    assert removed == [] and len(g.original) == 1


def test_prune_unsupported_chain():
    g = Grammar(REG)
    base = learnt("rule *b1 : [CAT NP] -> [CAT DET] [CAT N]", "*b1")
    mid = learnt("rule *b2 : [CAT VP] -> [CAT V] [CAT NP]", "*b2")
    top = learnt("rule *b3 : [CAT S] -> [CAT NP] [CAT VP]", "*b3")
    g.add_learnt(base, SupportRecord("*b1", (SupportRecord.LEXICAL, SupportRecord.LEXICAL)))
    g.add_learnt(mid, SupportRecord("*b2", (SupportRecord.LEXICAL, "*b1")))
    g.add_learnt(top, SupportRecord("*b3", ("*b1", "*b2")))
    g.remove_learnt("*b1")
    removed = set(prune_unsupported(g))
    assert removed == {"*b2", "*b3"}


def test_prune_unsupported_matches_reachability_oracle():
    rng = random.Random(59)
    for _ in range(30):
        g = Grammar(REG)
        n = rng.randint(3, 12)
        ids = ["*r%d" % i for i in range(n)]
        deps = {}
        cats = ["S", "NP", "VP", "V", "DET", "N", "A"]
        for i, rid in enumerate(ids):
            pool = ids[:i]
            daughters = tuple(
                rng.choice(pool) if pool and rng.random() < 0.5 else SupportRecord.LEXICAL
                for _ in range(2)
            )
            deps[rid] = daughters
            rule = learnt(
                "rule %s : [CAT S] -> [CAT %s, BAR %d] [CAT VP]"
                % (rid, cats[i % len(cats)], i % 3),
                rid,
            )
            assert g.add_learnt(rule, SupportRecord(rid, daughters)) is rule
        victim = rng.choice(ids)
        g.remove_learnt(victim)
        removed = set(prune_unsupported(g))
        # oracle: transitive closure over the support graph
        dead = {victim}
        changed = True
        while changed:
            changed = False
            for rid in ids:
                if rid in dead:
                    continue
                if any(d in dead for d in deps[rid] if d != SupportRecord.LEXICAL):
                    dead.add(rid)
                    changed = True
        assert removed == dead - {victim}


def test_prune_unsupported_no_deletions():
    g = Grammar(REG)
    g.add_learnt(adj_noun_rule(), SupportRecord("*binary1", (SupportRecord.LEXICAL,)))
    assert prune_unsupported(g) == []


def test_refine_grammar_reports_and_is_idempotent(store):
    g = Grammar(REG)
    g.add_learnt(adj_noun_rule(), SupportRecord("*binary1", (SupportRecord.LEXICAL,)))
    report = refine_grammar(store, g, RefineParams(), REG)
    assert any("Refining" in line for line in report)
    assert any("score: 0." in line for line in report)
    second = refine_grammar(store, g, RefineParams(), REG)
    assert second == []


def test_a_refined_rule_keeps_its_support(store):
    g = Grammar(REG)
    support = SupportRecord("*binary1", (SupportRecord.LEXICAL, "*gone"))
    g.add_learnt(adj_noun_rule(), support)
    refined, _, _ = refine_lhs(store, g.rule("*binary1"), REG)
    g.replace_learnt("*binary1", refined)
    assert g.rule("*binary1") is refined and g.support["*binary1"] is support
    g.replace_learnt("*binary1", adj_noun_rule())
    report = refine_grammar(store, g, RefineParams(), REG)
    assert report[0].startswith(" Refining") and report[-1] == " Deleting *binary1 (support undermined)"
    assert g.learnt == [] and g.support == {}


def test_refine_grammar_empty_learnt_set(store):
    g = Grammar(REG)
    assert refine_grammar(store, g, RefineParams(), REG) == []
