import pytest

from gramgrow.constructor import (
    MAX_BAR,
    MINOR_DAUGHTER,
    NO_BAR,
    NO_HEAD,
    construct_binary_cat,
    construct_unary_cat,
    is_minor,
)
from gramgrow.fs import Category, equal, parse_fs
from gramgrow.grammar import bar_of
from gramgrow.model import DEFAULT_NONHEAD
from gramgrow.resources import load_bundle


@pytest.fixture(scope="module")
def demo():
    registry, grammar, lexicon, _, labels = load_bundle("demo")
    return registry, grammar, lexicon, labels


@pytest.fixture(scope="module")
def lex(demo):
    _, _, lexicon, _ = demo
    return {t: lexicon.lexical_categories(t)[0] for t in lexicon.terminals}


def one(d):
    return Category((d,))


def raised(d, nonhead):
    """The LHS of the unary rule over d: d projected one bar level up."""
    return construct_unary_cat(one(d), 3, nonhead).lhs.disjuncts[0]


def test_bar_of_and_minor(demo, lex):
    assert bar_of(lex["happy"]) == 1
    assert bar_of(lex["the"]) is None
    assert not is_minor(lex["the"])  # demo has no MINOR feature at all


def test_bar_of_value_set(demo):
    registry = demo[0]
    d = parse_fs("[N +, BAR {1,2}]", registry).disjuncts[0]
    assert bar_of(d) == 2


def test_project_replaces_bar(demo, lex):
    got = raised(lex["cat"], None)
    assert got.get("BAR") == "2"
    assert got.get("NTYPE") == "COUNT"  # HFC off keeps non-head features


def test_project_hfc_drops_nonhead(demo, lex):
    got = raised(lex["cat"], DEFAULT_NONHEAD)
    assert got.get("BAR") == "2"
    assert got.get("NTYPE") is None
    assert got.get("PER") == "3"


def test_project_identity_at_own_bar(demo, lex):
    cat_fs = lex["cat"]
    # "the" has no bar, so cat heads, and max_bar 1 leaves only its own bar
    rule = construct_binary_cat(one(cat_fs), one(lex["the"]), 1, None)
    assert len(rule.lhs) == 1 and equal(rule.lhs.disjuncts[0], cat_fs)


def test_construct_unary_raises_bar(demo, lex):
    rule = construct_unary_cat(one(lex["happy"]), 2, None)
    assert not isinstance(rule, str)
    assert rule.arity == 1
    lhs = rule.lhs
    assert len(lhs) == 1 and lhs.disjuncts[0].get("BAR") == "2"
    # non-recursion: LHS bar differs from the daughter's
    assert rule.rhs(1).disjuncts[0].get("BAR") == "1"


def test_construct_unary_boundary(demo, lex):
    got = construct_unary_cat(one(lex["Sam"]), 2, None)
    assert got == MAX_BAR == "max-bar"


def test_construct_unary_no_bar(demo, lex):
    got = construct_unary_cat(one(lex["the"]), 3, None)
    assert got == NO_BAR == "no-bar"


def test_construct_unary_minor():
    _, _, lexicon, _, _ = load_bundle("claws")
    det = lexicon.lexical_categories("AT")[0]
    got = construct_unary_cat(one(det), 3, None)
    assert got == MINOR_DAUGHTER == "minor"


def test_construct_binary_worked_example(demo, lex):
    registry, _, _, labels = demo
    rule = construct_binary_cat(one(lex["happy"]), one(lex["cat"]), 2, None)
    assert not isinstance(rule, str)
    got = {labels.paraphrase(d) for d in rule.lhs.disjuncts}
    assert got == {"AP", "NP", "Adj", "N1"}
    assert labels.paraphrase_cat(rule.rhs(1)) == "Adj"
    assert labels.paraphrase_cat(rule.rhs(2)) == "N1"
    # every disjunct differs from its source daughter only in BAR
    for d in rule.lhs.disjuncts:
        src = lex["happy"] if d.get("ADV") is not None else lex["cat"]
        for feat in d.root_features:
            if feat != "BAR":
                assert d.get(feat) == src.get(feat)
        assert int(d.get("BAR")) in (1, 2)
    assert len(rule.lhs) <= 4


def test_construct_binary_minor_daughter_skipped(demo, lex):
    registry, _, _, labels = demo
    rule = construct_binary_cat(one(lex["the"]), one(lex["cat"]), 2, None)
    assert not isinstance(rule, str)
    assert {labels.paraphrase(d) for d in rule.lhs.disjuncts} == {"N1", "NP"}


def test_construct_binary_two_minor_daughters(demo, lex):
    got = construct_binary_cat(one(lex["the"]), one(lex["the"]), 3, None)
    assert got == NO_HEAD == "no-head-candidate"


def test_construct_binary_hfc_lhs_is_pure_head(demo, lex):
    rule = construct_binary_cat(one(lex["happy"]), one(lex["cat"]), 2, DEFAULT_NONHEAD)
    for d in rule.lhs.disjuncts:
        assert d.get("NTYPE") is None
        for feat in d.root_features:
            assert feat == "BAR" or feat not in DEFAULT_NONHEAD


def test_construct_binary_disjunctive_daughter(demo):
    registry, _, _, labels = demo
    c1 = parse_fs("[N -, V +, BAR 0, DET -]", registry)
    c2 = parse_fs("{[N -, V -, BAR 2, DET -], [N +, V -, BAR 3, DET -]}", registry)
    rule = construct_binary_cat(c1, c2, 3, None)
    labels_got = {labels.paraphrase(d) for d in rule.lhs.disjuncts}
    assert labels_got == {"V0", "VP", "PP", "P3", "N3"}
