import collections
import random

import pytest

from gramgrow.chart import ParserLimits, SessionFlags, parse
from gramgrow.fs import (
    FS,
    Category,
    FeatureRegistry,
    MalformedSyntax,
    equal_cat,
    parse_cats,
    parse_fs,
    parse_instances,
    print_fs,
    unify,
)
from gramgrow.grammar import (
    LHS,
    Grammar,
    GrammarError,
    SupportRecord,
    format_rule,
    make_rule,
    max_bar_of,
    narrow,
    parse_rule_line,
    rule_subsumes,
    slot,
    super_rule,
)
from gramgrow import fs as fs_module
from gramgrow import grammar as grammar_module
from gramgrow.model import load_model
from gramgrow.resources import data_path, load_bundle

from covers import covers_unfiltered
from genfs import GEN_REGISTRY, random_category, random_extension


@pytest.fixture(scope="module")
def demo():
    registry, grammar, lexicon, _, labels = load_bundle("demo")
    return registry, grammar, lexicon, labels


def cat(text, reg):
    return parse_fs(text, reg)


# a disjunctive category whose tag is shared across positions, and '|'
# alternatives that hold a disjunction
RULE_X = "rule X : {[N +, PER #1], [N -, PER #1]} -> [BAR 0, PER #1]"
RULE_W = "rule W : [N +] -> {[BAR 0], [BAR 1]} | [N -] -> [BAR 2]"


# -- loading -----------------------------------------------------------------


def test_demo_bundle_loads(demo):
    registry, grammar, lexicon, labels = demo
    assert len(grammar.original) == 6
    assert max_bar_of(registry) == 3
    assert len(lexicon.terminals) == 7


def test_max_bar_reads_digit_bar_values_only():
    for values, expected in [("0 1 2 MAX", 2), ("MAX", 1)]:
        reg = FeatureRegistry.from_text("feature BAR %s\nfeature N + -" % values)
        assert max_bar_of(reg) == expected


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
    registry, _, lexicon, _, labels = load_bundle("claws")
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


def _pairwise_narrow(instances, feat, disjuncts, memo, clashes):
    """narrow() as it was: the clash test for every instance/disjunct pair."""
    found = []
    for inst in instances:
        slot_fs = inst.get(feat)
        for d in disjuncts:
            if isinstance(slot_fs, FS) and clashes(slot_fs, d):
                continue
            key = (inst, feat, d)
            if key not in memo:
                memo[key] = unify(inst, d, at=feat)
            if memo[key] is not None:
                found.append(memo[key])
    return tuple(dict.fromkeys(found))


def test_narrow_matches_the_pairwise_reference_random(monkeypatch):
    """The same result, in the same order, and the same unifications, each
    made once, with each (slot value, disjunct) clash test made at most once
    per call.  The disjuncts are distinct, as every category's are."""
    plain = grammar_module.fsmod.clashes
    plain_unify = grammar_module.fsmod.unify
    tested = collections.Counter()
    unified = {}  # (instance, slot, disjunct) -> every fs.unify result seen

    def counting(d, d2):
        tested[d, d2] += 1
        return plain(d, d2)

    def recording(d, d2, at=None):
        got = plain_unify(d, d2, at=at)
        if at is not None:
            assert (d, at, d2) not in unified
            unified[d, at, d2] = got
        return got

    monkeypatch.setattr(grammar_module.fsmod, "clashes", counting)
    monkeypatch.setattr(grammar_module.fsmod, "unify", recording)
    rng = random.Random(53)
    seen = {"shared values": 0, "refused": 0, "unconstrained": 0, "kept": 0}
    for n in range(300):
        arity = rng.randint(1, 2)
        cats = [random_category(rng, max_disjuncts=2) for _ in range(arity + 1)]
        if rng.random() < 0.2:
            cats[1] = Category(cats[1].disjuncts + (FS.empty(),))
        rule = make_rule("r%d" % n, cats[0], cats[1:])
        feat = slot(rng.randint(1, arity))
        values = [inst.get(feat) for inst in rule.instances]
        daughters = [random_extension(rng, v) for v in values if isinstance(v, FS)]
        daughters += random_category(rng).disjuncts
        drawn = rng.sample(daughters, min(len(daughters), rng.randint(1, 4)))
        disjuncts = tuple(dict.fromkeys(drawn))
        want_memo = {}
        unified.clear()
        narrow.cache_clear()
        grammar_module._unified.cache_clear()
        for _ in range(2):  # cold, then warm
            tested.clear()
            got = narrow(rule.instances, feat, disjuncts)
            assert max(tested.values(), default=0) <= 1
            want = _pairwise_narrow(rule.instances, feat, disjuncts, want_memo, plain)
            assert got == want
            assert unified == want_memo
        seen["shared values"] += len(set(values)) < len(values)
        seen["refused"] += any(isinstance(v, FS) and plain(v, d) for v in values for d in disjuncts)
        seen["unconstrained"] += None in values
        seen["kept"] += bool(got)
    assert min(seen.values()) >= 30, seen


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


def test_atoms_clash_only_where_neither_rule_covers_the_other(monkeypatch):
    """The prefilter inside the cover memo: instance tuples whose root atoms
    clash cover neither way, and the cover test then reads no category."""
    rng = random.Random(7)
    clashing = []
    covers = 0
    for n in range(600):
        arity = rng.randint(1, 2)
        cats = [random_category(rng, max_disjuncts=2) for _ in range(arity + 1)]
        r = make_rule("r%d" % n, cats[0], cats[1:])
        if rng.random() < 0.5:  # often covered by r
            cats = [Category([random_extension(rng, d) for d in c.disjuncts]) for c in cats]
        else:
            cats = [random_category(rng, max_disjuncts=1) for _ in range(arity + 1)]
        s = make_rule("s%d" % n, cats[0], cats[1:])
        covered = covers_unfiltered(r, s) or covers_unfiltered(s, r)
        if grammar_module._atoms_clash(r.instances, s.instances):
            clashing.append((r, s))
            assert not covered, (format_rule(r), format_rule(s))
        covers += covered
    assert len(clashing) > 50 and covers > 200

    def unread(*args):
        raise AssertionError("a clashing pair read a category")

    monkeypatch.setattr(grammar_module, "cat_at", unread)
    monkeypatch.setattr(grammar_module, "subsumes_cat", unread)
    plain_covers = grammar_module._covers.__wrapped__
    for r, s in clashing:
        assert not plain_covers(r.instances, s.instances, r.arity)
        assert not plain_covers(s.instances, r.instances, r.arity)


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
    assert g.add_learnt(rule) is rule and g.learnt[-1] is rule
    assert g.add_learnt(rule) is rule  # identical rule is self-subsumed
    assert g.learnt.count(rule) == 1


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
    assert g.add_learnt(np1_copy) is g.rule("NP1")  # NP1 subsumes it
    assert g.learnt == [] and "*binary9" not in g


def test_add_learnt_refuses_a_taken_id(demo):
    registry, _, _, _ = demo
    g = Grammar(registry)
    r1 = parse_rule_line("rule *u1 : [N +, BAR 2] -> [N +, BAR 1]", registry, origin="learnt")
    r2 = parse_rule_line("rule *u1 : [N -, V +, BAR 2] -> [N -, V +, BAR 1]", registry, origin="learnt")
    support = SupportRecord("*u1", (SupportRecord.LEXICAL,))
    assert g.add_learnt(r1, support) is r1
    with pytest.raises(GrammarError):
        g.add_learnt(r2, SupportRecord("*u1", ("*u1",)))
    assert g.learnt == [r1] and g.rule("*u1") is r1 and list(g._by_id) == ["*u1"]
    assert g.support == {"*u1": support}


def test_add_learnt_returns_the_stored_rule(demo):
    registry = demo[0]
    g = Grammar(registry)
    r1 = parse_rule_line("rule *u1 : [N +, BAR 2] -> [N +, BAR 1]", registry, origin="learnt")
    r2 = parse_rule_line("rule *u2 : [N -, V +, BAR 2] -> [N -, V +, BAR 1]", registry, origin="learnt")
    copy = parse_rule_line("rule *u3 : [N -, V +, BAR 2] -> [N -, V +, BAR 1]", registry, origin="learnt")
    support = SupportRecord("*u2", (SupportRecord.LEXICAL,))
    assert g.add_learnt(r1) is r1
    assert g.add_learnt(r2, support) is r2 and g.support["*u2"] is support
    assert g.learnt[-1] is r2 and g.rule("*u2") is r2
    assert g.add_learnt(copy) is r2  # now subsumed by the stored rule
    assert "*u3" not in g
    g.remove_learnt("*u2")
    assert "*u2" not in g.support


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
    # the memos are keyed by values, so an entry filled before a change of
    # the rule set is never served after it
    additions = [
        lambda: g.add_original(x1),
        lambda: g.add_learnt(u1),
        lambda: g.load_rules(saved, origin="learnt"),
    ]
    for add in additions:
        observed(g)
        add()
        assert observed(g) == observed(fresh_copy())
    assert [r.id for r in g.learnt] == ["*u1", "*u9"]
    # and so are refinement's mutators
    for shrink in [lambda: g.replace_learnt("*u1", u1b), lambda: g.remove_learnt("*u1")]:
        observed(g)
        shrink()
        assert observed(g) == observed(fresh_copy())
    assert [r.id for r in g.learnt] == ["*u9"]


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


def test_parse_instances_shares_tags_across_positions():
    # the categories of an alternative are one tag scope, and each instance
    # is frozen from the one graph after the last category, so it sees every
    # binding; a disjunctive category gives one instance per disjunct
    cases = [
        ("[CAT #1] [CAT #1 = n] [X #1]", 3, ["[*LHS* [CAT #1=N], *R1* [CAT #1], *R2* [X #1]]"]),
        (
            "[CAT #1, Y #2 = {a, b}] [CAT #2] [X #1 = [Z #2]]",
            3,
            ["[*LHS* [CAT #1=[Z #2={A, B}], Y #2], *R1* [CAT #2], *R2* [X #1]]"],
        ),
        ("{[A 1], [B #1]} [C #1 = 2]", 2, ["[*LHS* [A 1], *R1* [C 2]]", "[*LHS* [B #1=2], *R1* [C #1]]"]),
    ]
    for text, count, want in cases:
        counts, instances = parse_instances([text], [LHS, slot(1), slot(2)])
        assert counts == [count]
        assert [print_fs(inst) for inst in instances] == want
    rule = parse_rule_line("rule r : [CAT #1] -> [CAT #1 = n] [X #1]", None)
    assert print_fs(rule.instances[0]) == cases[0][2][0]
    # apart from a rule line every disjunct is its own tag scope
    assert [print_fs(c) for c in parse_cats("[CAT #1 = n] [X #1]")] == ["[CAT N]", "[X []]"]


def test_rule_line_parses_each_category_once():
    # one singleton-disjunction warning per written value: no category of
    # the line is parsed a second time
    with pytest.warns(UserWarning) as caught:
        parse_rule_line("rule r : [A {x}] -> [B #1] [C {y}]", None)
    assert len(caught) == 2
    counts, instances = parse_instances(["[A #1]", "[B #1 = x] [C 2]"], [LHS, slot(1), slot(2)])
    assert counts == [1, 2]
    assert [print_fs(inst) for inst in instances] == ["[*LHS* [A #1=X], *R1* [B #1], *R2* [C 2]]"]


def test_a_disjunctive_rule_line_keeps_its_shared_tags():
    rule = parse_rule_line(RULE_X, None)
    assert rule.arity == 1
    assert [print_fs(inst) for inst in rule.instances] == [
        "[*LHS* [N +, PER #1], *R1* [BAR 0, PER #1]]",
        "[*LHS* [N -, PER #1], *R1* [BAR 0, PER #1]]",
    ]


def test_rule_alternatives_may_hold_disjunctions():
    rule = parse_rule_line(RULE_W, None)
    assert rule.arity == 1
    assert [print_fs(inst) for inst in rule.instances] == [
        "[*LHS* [N +], *R1* [BAR 0]]",
        "[*LHS* [N +], *R1* [BAR 1]]",
        "[*LHS* [N -], *R1* [BAR 2]]",
    ]


def test_a_disjunct_binds_its_tags_in_the_instances_that_choose_it_only():
    # a disjunction distributes over the rule: each instance is one tag scope
    # holding only the disjuncts it chooses
    cases = [
        ("{[A #1], [B #1 = y]} -> [C #1]", ["[*LHS* [A #1], *R1* [C #1]]", "[*LHS* [B #1=Y], *R1* [C #1]]"]),
        ("{[A #1=x], [B #1=y]} -> [C 1]", ["[*LHS* [A X], *R1* [C 1]]", "[*LHS* [B Y], *R1* [C 1]]"]),
    ]
    for text, want in cases:
        assert [print_fs(inst) for inst in parse_rule_line("rule r : " + text, None).instances] == want
    # a clash inside one instance still refuses the line, and each written
    # singleton value disjunction warns once
    with pytest.raises(MalformedSyntax):
        parse_rule_line("rule r : {[A #1=x], [B #1=y]} -> [C #1=x]", None)
    with pytest.warns(UserWarning) as caught:
        parse_rule_line("rule r : {[A {x}], [B 1]} -> [C {y}] {[D 1], [D 2]}", None)
    assert len(caught) == 2


def test_a_bottom_category_refuses_the_rule_line():
    for line in (
        "rule b : ⊥ -> [BAR 0]",
        "rule b : [N +] -> [BAR 0] ⊥",
        "rule b : ⊥ -> [BAR 0] | [N -] -> [BAR 2]",
        "rule b : [N +] -> [BAR 0] | [N -] -> {[BAR 1], [BAR 2]} ⊥",
    ):
        with pytest.raises(GrammarError):
            parse_rule_line(line, None)


def test_reading_the_demo_grammar_freezes_each_instance_once(monkeypatch):
    calls = []
    plain = fs_module._Graph.freeze

    def counting(graph, root):
        calls.append(root)
        return plain(graph, root)

    monkeypatch.setattr(fs_module._Graph, "freeze", counting)
    g = Grammar(load_bundle("demo")[0])
    calls.clear()
    g.load_rules(data_path("demo.grammar"))
    assert len(calls) == sum(len(rule.instances) for rule in g.rules) == 6


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
        assert g2.support[rule.id].mother == rule.id


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


def test_registries_are_values_and_each_prints_its_own_orders():
    texts = [
        "feature CAT S NP\nfeature N + -",
        "feature N + -\nfeature CAT S NP",  # declaration order differs
        "feature CAT S NP\nfeature N - +",  # value order differs
    ]
    regs = [FeatureRegistry.from_text(t) for t in texts]
    assert len(set(map(id, regs))) == 3
    assert FeatureRegistry.from_text(texts[0]) is regs[0]
    # a feature declared again gains its missing values in place
    assert FeatureRegistry.from_text("feature CAT S\nfeature N + -\nfeature cat S np") is regs[0]
    rule = parse_rule_line("rule R : [CAT S, N {+, -}] -> [CAT NP, N #1={-, +}] [N #1]", regs[0])
    want = [
        "rule R : [CAT S, N {+, -}] -> [CAT NP, N #1={+, -}] [N #1]",
        "rule R : [N {+, -}, CAT S] -> [N #1={+, -}, CAT NP] [N #1]",
        "rule R : [CAT S, N {-, +}] -> [CAT NP, N #1={-, +}] [N #1]",
    ]
    for order in (regs, regs[::-1]):  # the second pass reads the memo
        assert {reg: format_rule(rule, reg) for reg in order} == dict(zip(regs, want))


# -- paraphrase ---------------------------------------------------------------


def test_paraphrase_demo_np(demo):
    registry, _, lexicon, labels = demo
    sam = lexicon.lexical_categories("Sam")[0]
    assert labels.paraphrase(sam) == "NP"


def test_paraphrase_minor_det():
    registry, _, lexicon, _, labels = load_bundle("claws")
    det = lexicon.lexical_categories("AT")[0]
    assert labels.paraphrase(det) == "DT"


def test_paraphrase_no_match_is_x(demo):
    registry, _, _, labels = demo
    stray = parse_fs("[DEF +]", registry).disjuncts[0]
    assert labels.paraphrase(stray) == "X"


def test_paraphrase_bar_suffix_and_promotion():
    registry, _, lexicon, _, labels = load_bundle("claws")
    nn1 = lexicon.lexical_categories("NN1")[0]
    assert labels.paraphrase(nn1) == "N0"
    nn2_phrasal = lexicon.lexical_categories("NN2")[1]
    assert labels.paraphrase(nn2_phrasal) == "NP"
    assert labels.paraphrase(nn2_phrasal, promote=False) == "N2"
