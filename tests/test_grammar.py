import random

import pytest

from gramgrow.chart import ParserLimits, SessionFlags, parse
from gramgrow.fs import FS, FeatureRegistry, MalformedSyntax, equal_cat, parse_cats, parse_fs, print_fs
from gramgrow.grammar import (
    LHS,
    Grammar,
    GrammarError,
    SupportRecord,
    format_rule,
    make_rule,
    narrow,
    parse_rule_line,
    rule_subsumes,
    slot,
    super_rule,
)
from gramgrow.model import load_model
from gramgrow.resources import data_path, load_claws, load_demo

from genfs import GEN_REGISTRY, random_category


@pytest.fixture(scope="module")
def demo():
    return load_demo()


def cat(text, reg):
    return parse_fs(text, reg)


# -- loading -----------------------------------------------------------------


def test_demo_bundle_loads(demo):
    registry, grammar, lexicon, labels = demo
    assert len(grammar.original) == 6
    assert grammar.max_bar == 3
    assert len(lexicon.terminals) == 7


def test_max_bar_reads_digit_bar_values_only():
    for values, expected in [("0 1 2 MAX", 2), ("MAX", 1)]:
        reg = FeatureRegistry.from_text("feature BAR %s\nfeature N + -" % values)
        assert Grammar(reg).max_bar == expected


def test_rule_reentrancy_crosses_positions(demo):
    registry, grammar, _, _ = demo
    s1 = grammar.rule("S1")
    inst = s1.instances[0]
    # PER is shared between LHS and both daughters: one shared node
    text = print_fs(inst)
    assert text.count("#") >= 2


def test_lexical_categories(demo):
    registry, grammar, lexicon, _ = demo
    sam = lexicon.lexical_categories("Sam")
    assert len(sam) == 1 and sam[0].get("NTYPE") == "NAME"
    assert lexicon.lexical_categories("zebra") == ()


def test_claws_da_has_four_entries():
    registry, lexicon, labels = load_claws()
    assert len(lexicon.lexical_categories("DA")) == 4
    assert len(lexicon.lexical_categories("NN1")) == 1


def test_narrow_keeps_an_instance_a_daughter_adds_nothing_to(demo):
    registry, grammar, lexicon, _ = demo
    kept = 0
    for rule in grammar.original:
        for inst in rule.instances:
            for i in range(1, rule.arity + 1):
                value = inst.get(slot(i))
                if isinstance(value, FS):
                    for daughter in (value, FS.empty()):
                        (got,) = narrow((inst,), slot(i), (daughter,))
                        assert got is inst
                    kept += 1
    assert kept >= 6
    # a daughter that adds information gives a new, more specific instance
    inst = grammar.rule("S1").instances[0]
    (sam,) = lexicon.lexical_categories("Sam")
    (got,) = narrow((inst,), slot(1), (sam,))
    assert got != inst


# -- rule subsumption ----------------------------------------------------------


def test_rule_subsumes_reflexive(demo):
    registry, grammar, _, _ = demo
    for rule in grammar.original:
        assert rule_subsumes(rule, rule)


def test_super_rules_subsume_all_of_matching_arity(demo):
    registry, grammar, _, _ = demo
    b = super_rule(2)
    u = super_rule(1)
    for rule in grammar.original:
        if rule.arity == 2:
            assert rule_subsumes(b, rule)
            assert not rule_subsumes(u, rule)
        else:
            assert rule_subsumes(u, rule)


def test_rule_subsumes_positional(demo):
    registry, grammar, _, _ = demo
    det_n1 = parse_rule_line(
        "rule X1 : [N +, V -, BAR 2] -> [DET +] [N +, V -, BAR 1]", registry
    )
    det_np = parse_rule_line(
        "rule X2 : [N +, V -, BAR 2] -> [DET +] [N +, V -, BAR 2]", registry
    )
    assert not rule_subsumes(det_n1, det_np)
    assert not rule_subsumes(det_np, det_n1)


# -- retention ---------------------------------------------------------------


def test_add_learnt_retains_new_rule(demo):
    registry, _, _, _ = demo
    g = Grammar(registry)
    g.load_rules(__demo_grammar_path())
    rule = parse_rule_line(
        "rule *binary1 : {[N +, V -, BAR 1], [N +, V -, BAR 2]} -> [N +, V +, BAR 1] [N +, V -, BAR 1]",
        registry,
        origin="learnt",
    )
    assert g.add_learnt(rule)
    assert not g.add_learnt(rule)  # identical rule is self-subsumed


def test_add_learnt_rejects_rule_already_in_g(demo):
    registry, _, _, _ = demo
    g = Grammar(registry)
    g.load_rules(__demo_grammar_path())
    np1_copy = parse_rule_line(
        "rule *binary9 : [N +, V -, BAR 2, DET -, PER 3] -> "
        "[DET +, CONJ NULL, DEF +] [N +, V -, BAR 1, DET -, PER 3, PLU -]",
        registry,
        origin="learnt",
    )
    assert not g.add_learnt(np1_copy)  # NP1 subsumes it


def test_add_learnt_renames_duplicate_id(demo):
    registry, _, _, _ = demo
    g = Grammar(registry)
    r1 = parse_rule_line("rule *u1 : [N +, BAR 2] -> [N +, BAR 1]", registry, origin="learnt")
    r2 = parse_rule_line("rule *u1 : [N -, V +, BAR 2] -> [N -, V +, BAR 1]", registry, origin="learnt")
    assert g.add_learnt(r1)
    assert g.add_learnt(r2)
    assert len({r.id for r in g.learnt}) == 2


def test_add_learnt_returns_the_stored_rule(demo):
    registry = demo[0]
    g = Grammar(registry)
    r1 = parse_rule_line("rule *u1 : [N +, BAR 2] -> [N +, BAR 1]", registry, origin="learnt")
    r2 = parse_rule_line("rule *u1 : [N -, V +, BAR 2] -> [N -, V +, BAR 1]", registry, origin="learnt")
    support = SupportRecord("*u1", (SupportRecord.LEXICAL,))
    assert g.add_learnt(r1) is r1
    stored = g.add_learnt(r2, support)
    assert stored.id == "*u1_2" and stored.support is support
    assert g.learnt[-1] is stored and g.rule("*u1_2") is stored
    assert g.add_learnt(r2) is None  # now subsumed by the stored copy


def test_learnt_rule_with_a_taken_id_is_refused(tmp_path, demo):
    registry = demo[0]
    g = Grammar(registry)
    g.load_rules(__demo_grammar_path())
    s1 = g.rule("S1")
    saved = tmp_path / "learnt.rules"
    saved.write_text(format_rule(s1, registry) + "\n")
    with pytest.raises(GrammarError):
        g.load_rules(saved, origin="learnt")
    assert g.rule("S1") is s1 and g.learnt == []
    g2 = Grammar(registry)
    g2.load_rules(saved, origin="learnt")
    with pytest.raises(GrammarError):
        g2.load_rules(saved, origin="learnt")
    assert [r.id for r in g2.learnt] == ["S1"]
    g2.remove_learnt("S1")
    assert g2.learnt == [] and "S1" not in g2


def test_combine_memo_lives_until_a_rule_is_removed_or_replaced(tmp_path, demo):
    registry, _, lexicon, _ = demo
    g = Grammar(registry)
    g.load_rules(__demo_grammar_path())
    sentences = ["Sam chases the cat", "Sam chases the happy cat", "the happy cat"]

    def observed(grammar):
        out = []
        for sentence in sentences:
            res = parse(sentence.split(), grammar, lexicon, limits=ParserLimits(max_edges=3000))
            out.append(([t.display() for t in res.trees], res.n_parses))
        return out

    def fresh_copy():
        fresh = Grammar(registry)
        for rule in g.original:
            fresh.add_original(rule)
        path = tmp_path / "copy.rules"
        g.save_learnt(path)
        fresh.load_rules(path, origin="learnt")
        return fresh

    u1 = parse_rule_line("rule *u1 : [N +, BAR 2] -> [N +, BAR 1]", registry, origin="learnt")
    u1b = parse_rule_line(
        "rule *u1 : [N -, V +, BAR 2] -> [N -, V +, BAR 1]", registry, origin="learnt"
    )
    x1 = parse_rule_line("rule X1 : [N +, BAR 3] -> [N +, BAR 2]", registry)
    saved = tmp_path / "learnt.rules"
    saved.write_text(format_rule(u1b, registry).replace("*u1", "*u9") + "\n")
    # adding rules keeps every entry: keys are values, so none goes stale
    additions = [
        lambda: g.add_original(x1),
        lambda: g.add_learnt(u1),
        lambda: g.load_rules(saved, origin="learnt"),
    ]
    for add in additions:
        observed(g)
        before = dict(g.combine_memo)
        assert before
        add()
        assert all(g.combine_memo.get(key) is value for key, value in before.items())
        assert observed(g) == observed(fresh_copy())
    assert [r.id for r in g.learnt] == ["*u1", "*u9"]
    # refinement's mutators still empty it
    for shrink in [lambda: g.replace_learnt("*u1", u1b), lambda: g.remove_learnt("*u1")]:
        observed(g)
        assert g.combine_memo
        shrink()
        assert g.combine_memo == {}


def test_load_rules_adds_all_or_nothing(tmp_path, demo):
    registry = demo[0]
    g = Grammar(registry)
    g.load_rules(__demo_grammar_path())
    original, learnt = list(g.original), list(g.learnt)
    u9 = format_rule(
        parse_rule_line("rule *u9 : [N +, BAR 2] -> [N +, BAR 1]", registry, origin="learnt"),
        registry,
    )
    files = [
        # a fresh rule, then one whose id the grammar holds
        ([u9, format_rule(g.rule("S1"), registry)], GrammarError),
        # one id twice in the file
        ([u9, u9.replace("N +", "N -")], GrammarError),
        # a fresh rule, then a line that does not parse
        ([u9, "rule *u10 : [N +] ->"], MalformedSyntax),
    ]
    for n, (lines, error) in enumerate(files):
        path = tmp_path / ("learnt%d.rules" % n)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error):
            g.load_rules(path, origin="learnt")
        assert g.original == original and g.learnt == learnt and "*u9" not in g


def test_parse_cats_joint_shares_tags_across_positions():
    # each category is frozen as soon as it is parsed, so a tag bound later
    # in the sequence does not reach back into an earlier category; the joint
    # structure is frozen last and sees every binding
    cases = [
        (
            "[CAT #1] [CAT #1 = n] [X #1]",
            ["[CAT []]", "[CAT N]", "[X N]"],
            "[*LHS* [CAT #1=N], *R1* [CAT #1], *R2* [X #1]]",
        ),
        (
            "[CAT #1, Y #2 = {a, b}] [CAT #2] [X #1 = [Z #2]]",
            ["[CAT [], Y {A, B}]", "[CAT {A, B}]", "[X [Z {A, B}]]"],
            "[*LHS* [CAT #1=[Z #2={A, B}], Y #2], *R1* [CAT #2], *R2* [X #1]]",
        ),
        ("{[A 1], [B #1]} [C #1 = 2]", ["{[A 1], [B []]}", "[C 2]"], None),
    ]
    for text, cats, joint in cases:
        got, wrapper = parse_cats(text, joint=[LHS, slot(1), slot(2)])
        assert [print_fs(c) for c in got] == cats
        assert (wrapper if wrapper is None else print_fs(wrapper)) == joint
    rule = parse_rule_line("rule r : [CAT #1] -> [CAT #1 = n] [X #1]", None)
    assert print_fs(rule.instances[0]) == cases[0][2]
    # without a joint structure every disjunct is its own tag scope
    assert [print_fs(c) for c in parse_cats("[CAT #1 = n] [X #1]")] == ["[CAT N]", "[X []]"]


def test_rule_line_parses_each_category_once():
    # one singleton-disjunction warning per written value: no category of
    # the line is parsed a second time
    with pytest.warns(UserWarning) as caught:
        parse_rule_line("rule r : [A {x}] -> [B #1] [C {y}]", None)
    assert len(caught) == 2
    (lhs, rhs), wrapper = parse_cats(["[A #1]", "[B #1 = x] [C 2]"], joint=[LHS, slot(1), slot(2)])
    assert [len(lhs), len(rhs)] == [1, 2]
    assert print_fs(wrapper) == "[*LHS* [A #1=X], *R1* [B #1], *R2* [C 2]]"


def test_rule_needs_one_lhs_category():
    for line in ("rule r : [A 1] [B 1] -> [C 1]", "rule r : -> [C 1]", "rule r : [A 1] ->"):
        with pytest.raises(MalformedSyntax):
            parse_rule_line(line, None)


def __demo_grammar_path():
    from gramgrow.resources import data_path

    return data_path("demo.grammar")


# -- persistence --------------------------------------------------------------


def test_grammar_save_load_round_trip(tmp_path, demo):
    registry, grammar, _, _ = demo
    g = Grammar(registry)
    g.load_rules(__demo_grammar_path())
    learnt = parse_rule_line(
        "rule *binary1 : {[N +, V -, BAR 1], [N +, V +, BAR 2]} -> [N +, V +, BAR 1] [N +, V -, BAR 1, PER {1,3}]",
        registry,
        origin="learnt",
    )
    g.add_learnt(learnt, SupportRecord("*binary1", ("NP1", SupportRecord.LEXICAL)))
    out = tmp_path / "learnt.rules"
    g.save_learnt(out)
    g2 = Grammar(registry)
    g2.load_rules(out, origin="learnt")
    assert len(g2.learnt) == len(g.learnt)
    for a, b in zip(g.learnt, g2.learnt):
        assert a.id == b.id and a.arity == b.arity
        assert equal_cat(a.lhs, b.lhs)
        for i in range(1, a.arity + 1):
            assert equal_cat(a.rhs(i), b.rhs(i))


def _learn_into(grammar, lexicon, sentence, hfc=False):
    model = load_model(data_path("demo.model"), grammar.registry)
    flags = SessionFlags(learning=True, hfc=hfc)
    return parse(sentence.split(), grammar, lexicon, model, flags=flags)


def test_save_learnt_is_lossless(tmp_path, demo):
    registry, _, lexicon, _ = demo
    g = Grammar(registry)
    g.load_rules(__demo_grammar_path())
    _learn_into(g, lexicon, "Sam chases the cat down the road", hfc=True)
    assert any(len(rule.instances) > 1 for rule in g.learnt)
    first, second = tmp_path / "first.rules", tmp_path / "second.rules"
    g.save_learnt(first)
    g2 = Grammar(registry)
    g2.load_rules(first, origin="learnt")
    g2.save_learnt(second)
    assert first.read_bytes() == second.read_bytes()
    assert [r.id for r in g2.learnt] == [r.id for r in g.learnt]
    for a, b in zip(g.learnt, g2.learnt):
        assert set(a.instances) == set(b.instances)


def test_rule_alternatives_share_one_arity(demo):
    registry = demo[0]
    with pytest.raises(MalformedSyntax):
        parse_rule_line("rule r : [BAR 2] -> [BAR 1] | [BAR 2] -> [BAR 1] [BAR 0]", registry)


def test_learning_after_reload_gives_fresh_ids(tmp_path, demo):
    registry, _, lexicon, _ = demo
    g = Grammar(registry)
    g.load_rules(__demo_grammar_path())
    _learn_into(g, lexicon, "Sam chases the happy cat")
    saved = tmp_path / "learnt.rules"
    g.save_learnt(saved)
    g2 = Grammar(registry)
    g2.load_rules(__demo_grammar_path())
    g2.load_rules(saved, origin="learnt")
    res = _learn_into(g2, lexicon, "Sam chases the cat down the road")
    assert res.learnt
    for rule in res.learnt:
        assert rule.support.mother == rule.id


def test_format_rule_round_trip_random():
    rng = random.Random(41)
    for i in range(40):
        lhs = random_category(rng, max_disjuncts=2)
        rhs = [random_category(rng, max_disjuncts=1) for _ in range(rng.randint(1, 2))]
        rule = make_rule("r%d" % i, lhs, rhs, origin="learnt")
        text = format_rule(rule, GEN_REGISTRY)
        back = parse_rule_line(text, GEN_REGISTRY, origin="learnt")
        assert equal_cat(rule.lhs, back.lhs)
        for k in range(1, rule.arity + 1):
            assert equal_cat(rule.rhs(k), back.rhs(k))


# -- paraphrase ---------------------------------------------------------------


def test_paraphrase_demo_np(demo):
    registry, _, lexicon, labels = demo
    sam = lexicon.lexical_categories("Sam")[0]
    assert labels.paraphrase(sam) == "NP"


def test_paraphrase_minor_det():
    registry, lexicon, labels = load_claws()
    det = lexicon.lexical_categories("AT")[0]
    assert labels.paraphrase(det) == "DT"


def test_paraphrase_no_match_is_x(demo):
    registry, _, _, labels = demo
    stray = parse_fs("[DEF +]", registry).disjuncts[0]
    assert labels.paraphrase(stray) == "X"


def test_paraphrase_bar_suffix_and_promotion():
    registry, lexicon, labels = load_claws()
    nn1 = lexicon.lexical_categories("NN1")[0]
    assert labels.paraphrase(nn1) == "N0"
    nn2_phrasal = lexicon.lexical_categories("NN2")[1]
    assert labels.paraphrase(nn2_phrasal) == "NP"
    assert labels.paraphrase(nn2_phrasal, promote=False) == "N2"
