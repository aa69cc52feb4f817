import itertools
import random
import re

import pytest

from gramgrow.fs import (
    Category,
    FeatureRegistry,
    MalformedSyntax,
    UndeclaredFeature,
    expand,
    matches,
    parse_fs,
    print_fs,
    read_text,
    subsumes,
)
from gramgrow.model import (
    _most_specific,
    apply_type,
    compatible,
    criticise_rhs,
    load_model,
    match,
    parse_pattern,
    parse_type,
    type_check,
    violated_lp,
)
from gramgrow.grammar import parse_rule_line
from gramgrow.resources import data_path, load_bundle

from genfs import GEN_REGISTRY, random_fs
from hfc import hfc_check
from patterns import fs_matches


@pytest.fixture(scope="module")
def demo():
    registry, grammar, lexicon, model, labels = load_bundle("demo")
    return registry, grammar, lexicon, labels, model


def lex1(lexicon, word):
    return lexicon.lexical_categories(word)[0]


# -- pattern matching ----------------------------------------------------------


def test_match_requires_presence(demo):
    registry, _, lexicon, _, _ = demo
    p = parse_pattern("[SUBCAT *]", registry)
    assert not match(p, Category((lex1(lexicon, "the"),)))
    assert match(p, Category((lex1(lexicon, "chases"),)))


def test_match_negation(demo):
    registry, _, lexicon, _, _ = demo
    p = parse_pattern("~[SUBCAT *]", registry)
    assert match(p, Category((lex1(lexicon, "the"),)))
    assert not match(p, Category((lex1(lexicon, "chases"),)))


def test_match_value_disjunction_any_member(demo):
    registry, _, _, _, _ = demo
    p = parse_pattern("[BAR 1]", registry)
    d = parse_fs("[BAR {1,2}]", registry).disjuncts[0]
    assert match(p, Category((d,)))


def test_matches_agrees_with_reference_on_demo_patterns(demo):
    _, _, lexicon, _, model = demo
    patterns = [p for rule in model.lp_rules for p in (rule.left, rule.right)]
    patterns += [p for p, _ in model.type_rows]
    entries = [d for t in lexicon.terminals for d in lexicon.lexical_categories(t)]
    seen = set()
    for p, d, presence in itertools.product(patterns, entries, (True, False)):
        got = matches(p.fs, d, presence)
        assert got == fs_matches(p.fs, d, presence), (p, d, presence)
        seen.add(got)
    assert seen == {True, False}


def test_matches_agrees_with_reference_on_wildcard_patterns():
    rng = random.Random(3)
    atom = re.compile(r"\b([A-D]) (\w+)")
    seen = set()
    for _ in range(300):
        source = random_fs(rng)
        text = atom.sub(
            lambda m: m.group(1) + " *" if rng.random() < 0.5 else m.group(0),
            print_fs(source, GEN_REGISTRY),
        )
        p = parse_fs(text, GEN_REGISTRY, pattern=True).disjuncts[0]
        for d in [source] + [random_fs(rng) for _ in range(4)]:
            for presence in (True, False):
                got = matches(p, d, presence)
                assert got == fs_matches(p, d, presence), (text, d, presence)
                seen.add(got)
    assert seen == {True, False}


# -- linear precedence ----------------------------------------------------------


def lp_check(rhs, lp_rules):
    """The LP reference: False iff some daughter that matches a rule's right
    side precedes a daughter matching its left side."""
    if len(rhs) < 2:
        return True
    for rule in lp_rules:
        for i in range(len(rhs)):
            if not match(rule.right, rhs[i]):
                continue
            for j in range(i + 1, len(rhs)):
                if match(rule.left, rhs[j]):
                    return False
    return True


def test_lp1_det_n1_order(demo):
    registry, _, lexicon, _, model = demo
    det = Category((lex1(lexicon, "the"),))
    n1 = Category((lex1(lexicon, "cat"),))
    assert not violated_lp([det, n1], model.lp_rules)
    # the demo "the" carries no SUBCAT binding, so the subcategorisation LP
    # rule cannot fire against it; the verb supplies the lexical daughter
    v0 = Category((lex1(lexicon, "chases"),))
    assert violated_lp([n1, v0], model.lp_rules)
    assert not violated_lp([v0, n1], model.lp_rules)


def test_lp4_pp_before_s(demo):
    registry, _, _, _, model = demo
    pp = parse_fs("[N -, V -, BAR 2, DET -]", registry)
    s = parse_fs("[N -, V +, BAR 2, DET -, VFORM FIN]", registry)
    assert not violated_lp([pp, s], model.lp_rules)
    assert violated_lp([s, pp], model.lp_rules)


def test_lp_vacuous_on_single_daughter(demo):
    registry, _, _, _, model = demo
    s = parse_fs("[N -, V +, BAR 2]", registry)
    assert not violated_lp([s], model.lp_rules)


def test_lp_ignores_unmentioned_features(demo):
    registry, _, lexicon, _, model = demo
    det = Category((lex1(lexicon, "the"),))
    n1 = parse_fs("[N +, V -, BAR 1, DET -, PER 2, PLU +, PRD +]", registry)
    assert violated_lp([det, n1], model.lp_rules) == violated_lp(
        [det, parse_fs("[N +, V -, BAR 1]", registry)], model.lp_rules
    )


# -- types ----------------------------------------------------------------------


def test_parse_and_format_types():
    t = parse_type("<<e,t>,<<e,t>,t>>")
    assert t == (("e", "t"), (("e", "t"), "t"))
    assert parse_type("e") == "e"


def test_typ_lookup_demo_np(demo):
    registry, _, lexicon, _, model = demo
    sam = lex1(lexicon, "Sam")
    assert _most_specific(model.type_rows, sam) == (("e", "t"), "t")


def test_typ_lookup_transitive_verb(demo):
    registry, _, lexicon, _, model = demo
    chases = lex1(lexicon, "chases")
    npt = (("e", "t"), "t")
    assert _most_specific(model.type_rows, chases) == (npt, (npt, "t"))


def test_typ_lookup_undefined(demo):
    registry, _, lexicon, _, model = demo
    down = lex1(lexicon, "down")
    assert _most_specific(model.type_rows, down) is None


def _type_of(rows, d):
    """_most_specific without its memo: the type of the most specific
    compatible row (the first one if none is most specific), or None."""
    hits = [(i, pat, typ) for i, (pat, typ) in enumerate(rows) if compatible(pat, d)]
    if not hits:
        return None
    best = []
    for i, pat, typ in hits:
        general = any(
            subsumes(pat.fs, other.fs) and not subsumes(other.fs, pat.fs)
            for j, other, _ in hits
            if j != i
        )
        if not general:
            best.append((i, typ))
    if not best:
        best = [(hits[0][0], hits[0][2])]
    return min(best)[1]


def test_typ_lookup_matches_uncached_reference(demo):
    registry, grammar, lexicon, _, model = demo
    cats = [Category((d,)) for w in lexicon.terminals for d in lexicon.lexical_categories(w)]
    cats += [rule.rhs(i) for rule in grammar.rules for i in range(1, rule.arity + 1)]
    structures = [d for c in cats for d in c.disjuncts]
    structures += [e for c in cats for e in expand(c, registry)]
    rows = model.type_rows
    for _ in range(2):  # the second pass reads the memo
        for d in structures:
            assert _most_specific(rows, d) == _type_of(rows, d)
    assert {_most_specific(rows, d) is None for d in structures} == {True, False}


def test_negated_type_pattern_is_refused(demo, tmp_path):
    registry = demo[0]
    path = tmp_path / "negated.model"
    path.write_text("type [N +] : e\ntype ~[N +] : e\n")
    with pytest.raises(MalformedSyntax):
        load_model(path, registry)
    path.write_text("type [N +] : e\nlp LP1 : ~[N +] < [N +]\n")
    assert len(load_model(path, registry).lp_rules) == 1


def test_the_same_text_loads_to_one_registry_and_one_model(demo, tmp_path):
    registry, model = demo[0], demo[4]
    assert FeatureRegistry.load(data_path("demo.features")) is registry
    text = read_text(data_path("demo.model"))
    copy = tmp_path / "copy.model"
    copy.write_text(text)
    assert load_model(copy, registry) is model
    # patterns and LP rules compare by value; the rule order is the model's
    lines = text.splitlines()
    first_lp = next(i for i, line in enumerate(lines) if line.startswith("lp "))
    lines[first_lp], lines[first_lp + 1] = lines[first_lp + 1], lines[first_lp]
    copy.write_text("\n".join(lines))
    swapped = load_model(copy, registry)
    assert swapped is not model
    assert swapped.lp_rules[:2] == model.lp_rules[1::-1] and swapped.lp_rules[2:] == model.lp_rules[2:]
    assert swapped.type_rows == model.type_rows


def test_nonhead_names_must_be_declared(demo, tmp_path):
    registry = demo[0]
    path = tmp_path / "nonhead.model"
    path.write_text("nonhead NTYPEE CASE\n")
    with pytest.raises(UndeclaredFeature):
        load_model(path, registry)
    path.write_text("nonhead ntype case\n")
    assert load_model(path, registry).nonhead == {"NTYPE", "CASE", "BAR"}


def test_apply_type_det_nominal():
    det = parse_type("<<e,t>,<<e,t>,t>>")
    n1 = parse_type("<e,t>")
    npt = parse_type("<<e,t>,t>")
    assert apply_type(det, n1) == npt
    assert apply_type(det, npt) is None
    assert apply_type("e", n1) is None


def test_type_check_pairs(demo):
    registry, _, lexicon, _, model = demo
    det = Category((lex1(lexicon, "the"),))
    n1 = Category((lex1(lexicon, "cat"),))
    np = Category((lex1(lexicon, "Sam"),))
    adj = Category((lex1(lexicon, "happy"),))
    rows = model.type_rows
    assert type_check([det, n1], rows, registry)
    assert not type_check([det, np], rows, registry)
    assert type_check([adj, n1], rows, registry)  # <<e,t>,<e,t>> ∘ <e,t>
    assert not type_check([det, adj], rows, registry)


def test_type_check_symmetric(demo):
    registry, _, lexicon, _, model = demo
    cats = [Category((lex1(lexicon, w),)) for w in lexicon.terminals]
    for a, b in itertools.product(cats, cats):
        assert type_check([a, b], model.type_rows, registry) == type_check(
            [b, a], model.type_rows, registry
        )


def test_type_check_disjunctive_any_expansion(demo):
    registry, _, lexicon, _, model = demo
    det = Category((lex1(lexicon, "the"),))
    mixed = parse_fs("{[N +, V +, BAR 1, DET -], [N +, V -, BAR 1, DET -]}", registry)
    assert type_check([det, mixed], model.type_rows, registry)


def test_violated_lp_names_each_rule_the_reference_rejects(demo):
    registry, _, lexicon, _, model = demo
    words = [Category((lex1(lexicon, w),)) for w in lexicon.terminals]
    for rhs in itertools.chain(
        itertools.product(words, repeat=1),
        itertools.product(words, repeat=2),
        itertools.product(words, repeat=3),
    ):
        expect = [r.name for r in model.lp_rules if not lp_check(list(rhs), [r])]
        assert violated_lp(list(rhs), model.lp_rules) == expect


def test_type_check_permissive_when_undefined(demo):
    registry, _, lexicon, _, model = demo
    down = Category((lex1(lexicon, "down"),))
    det = Category((lex1(lexicon, "the"),))
    assert type_check([down, det], model.type_rows, registry)


# -- hfc_check -------------------------------------------------------------------


def test_hfc_check_on_projected_rule(demo):
    registry, _, lexicon, _, model = demo
    from gramgrow.constructor import construct_binary_cat

    rule = construct_binary_cat(
        Category((lex1(lexicon, "happy"),)),
        Category((lex1(lexicon, "cat"),)),
        3,
        model.nonhead,
    )
    assert hfc_check(rule, model.nonhead)


def test_hfc_check_violation(demo):
    registry, _, _, _, model = demo
    rule = parse_rule_line(
        "rule bad : [N +, V -, BAR 2] -> [N -, V +, BAR 1]", registry, origin="learnt"
    )
    assert not hfc_check(rule, model.nonhead)


# -- criticise_rhs ----------------------------------------------------------------


def _pairs(lexicon):
    words = list(lexicon.terminals)
    return [(a, b) for a in words for b in words]


def test_criticise_rhs_all_off_accepts_everything(demo):
    registry, _, lexicon, _, model = demo
    for a, b in _pairs(lexicon):
        rhs = [Category((lex1(lexicon, a),)), Category((lex1(lexicon, b),))]
        assert criticise_rhs(rhs, model, registry, lp=False, types=False) is None


def test_criticise_rhs_matches_conjunction_oracle(demo):
    registry, _, lexicon, _, model = demo
    for lp_on, types_on in itertools.product((False, True), repeat=2):
        for a, b in _pairs(lexicon):
            rhs = [Category((lex1(lexicon, a),)), Category((lex1(lexicon, b),))]
            expect = (not lp_on or lp_check(rhs, model.lp_rules)) and (
                not types_on or type_check(rhs, model.type_rows, registry)
            )
            assert (criticise_rhs(rhs, model, registry, lp_on, types_on) is None) == expect


def test_adding_principles_never_grows_accepted_set(demo):
    registry, _, lexicon, _, model = demo

    def accepted(lp_on, types_on):
        out = set()
        for a, b in _pairs(lexicon):
            rhs = [Category((lex1(lexicon, a),)), Category((lex1(lexicon, b),))]
            if criticise_rhs(rhs, model, registry, lp_on, types_on) is None:
                out.add((a, b))
        return out

    full = accepted(True, True)
    for flags in ((False, False), (True, False), (False, True)):
        assert full <= accepted(*flags)


def test_np_v_rejected_full_model(demo):
    registry, _, lexicon, _, model = demo
    rhs = [Category((lex1(lexicon, "Sam"),)), Category((lex1(lexicon, "chases"),))]
    got = criticise_rhs(rhs, model, registry)
    assert got is not None and any(r.startswith("lp") for r in got.split(";"))


def test_adj_n1_accepted_full_model(demo):
    registry, _, lexicon, _, model = demo
    rhs = [Category((lex1(lexicon, "happy"),)), Category((lex1(lexicon, "cat"),))]
    assert criticise_rhs(rhs, model, registry) is None
