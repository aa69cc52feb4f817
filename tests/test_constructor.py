import pytest

from gramgrow.constructor import (
    Rejection,
    XBarConfig,
    construct_binary_cat,
    construct_unary_cat,
    is_minor,
    project,
)
from gramgrow.fs import Category, FSError, equal, parse_fs
from gramgrow.grammar import bar_of
from gramgrow.resources import load_demo


@pytest.fixture(scope="module")
def demo():
    return load_demo()


@pytest.fixture(scope="module")
def lex(demo):
    _, _, lexicon, _ = demo
    return {t: lexicon.lexical_categories(t)[0] for t in lexicon.terminals}


CFG = XBarConfig(max_bar=3)
CFG_HFC = CFG.with_hfc(True)


def one(d):
    return Category((d,))


def test_bar_of_and_minor(demo, lex):
    assert bar_of(lex["happy"]) == 1
    assert bar_of(lex["the"]) is None
    assert not is_minor(lex["the"])  # demo has no MINOR feature at all
    registry, _, lexicon, _ = load_demo()[0], None, None, None


def test_bar_of_value_set(demo):
    registry = demo[0]
    d = parse_fs("[N +, BAR {1,2}]", registry).disjuncts[0]
    assert bar_of(d) == 2


def test_project_replaces_bar(demo, lex):
    got = project(lex["cat"], 2, CFG)
    assert got.get("BAR") == "2"
    assert got.get("NTYPE") == "COUNT"  # HFC off keeps non-head features


def test_project_hfc_drops_nonhead(demo, lex):
    got = project(lex["cat"], 2, CFG_HFC)
    assert got.get("BAR") == "2"
    assert got.get("NTYPE") is None
    assert got.get("PER") == "3"


def test_project_identity_at_own_bar(demo, lex):
    cat_fs = lex["cat"]
    assert equal(project(cat_fs, 1, CFG), cat_fs)


def test_project_rejects_out_of_range(demo, lex):
    with pytest.raises(FSError):
        project(lex["cat"], 4, CFG)


def test_construct_unary_raises_bar(demo, lex):
    rule = construct_unary_cat(one(lex["happy"]), XBarConfig(max_bar=2), "*unary1")
    assert not isinstance(rule, Rejection)
    assert rule.arity == 1
    lhs = rule.lhs
    assert len(lhs) == 1 and lhs.disjuncts[0].get("BAR") == "2"
    # non-recursion: LHS bar differs from the daughter's
    assert rule.rhs(1).disjuncts[0].get("BAR") == "1"


def test_construct_unary_boundary(demo, lex):
    got = construct_unary_cat(one(lex["Sam"]), XBarConfig(max_bar=2), "*unary2")
    assert isinstance(got, Rejection) and got.reason == Rejection.MAX_BAR


def test_construct_unary_no_bar(demo, lex):
    got = construct_unary_cat(one(lex["the"]), CFG, "*unary3")
    assert isinstance(got, Rejection) and got.reason == Rejection.NO_BAR


def test_construct_unary_minor():
    registry, lexicon, _ = __claws()
    det = lexicon.lexical_categories("AT")[0]
    got = construct_unary_cat(one(det), XBarConfig(max_bar=3), "*unary4")
    assert isinstance(got, Rejection) and got.reason == Rejection.MINOR


def __claws():
    from gramgrow.resources import load_claws

    return load_claws()


def test_construct_binary_worked_example(demo, lex):
    registry, _, _, labels = demo
    rule = construct_binary_cat(one(lex["happy"]), one(lex["cat"]), XBarConfig(max_bar=2), "*binary1")
    assert not isinstance(rule, Rejection)
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
    rule = construct_binary_cat(one(lex["the"]), one(lex["cat"]), XBarConfig(max_bar=2), "*binary2")
    assert not isinstance(rule, Rejection)
    assert {labels.paraphrase(d) for d in rule.lhs.disjuncts} == {"N1", "NP"}


def test_construct_binary_two_minor_daughters(demo, lex):
    got = construct_binary_cat(one(lex["the"]), one(lex["the"]), CFG, "*binary3")
    assert isinstance(got, Rejection) and got.reason == Rejection.NO_HEAD


def test_construct_binary_hfc_lhs_is_pure_head(demo, lex):
    rule = construct_binary_cat(one(lex["happy"]), one(lex["cat"]), XBarConfig(max_bar=2, hfc=True), "*b4")
    for d in rule.lhs.disjuncts:
        assert d.get("NTYPE") is None
        for feat in d.root_features:
            assert feat == "BAR" or feat not in CFG_HFC.nonhead


def test_construct_binary_disjunctive_daughter(demo):
    registry, _, _, labels = demo
    c1 = parse_fs("[N -, V +, BAR 0, DET -]", registry)
    c2 = parse_fs("{[N -, V -, BAR 2, DET -], [N +, V -, BAR 3, DET -]}", registry)
    rule = construct_binary_cat(c1, c2, CFG, "*b5")
    labels_got = {labels.paraphrase(d) for d in rule.lhs.disjuncts}
    assert labels_got == {"V0", "VP", "PP", "P3", "N3"}
