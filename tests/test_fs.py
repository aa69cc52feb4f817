import hashlib
import random
import warnings

import pytest

from gramgrow.fs import (
    BOTTOM,
    Category,
    EMPTY_CAT,
    FS,
    FeatureRegistry,
    MalformedSyntax,
    UndeclaredFeature,
    UndeclaredValue,
    equal,
    equal_cat,
    expand,
    fs_from_pairs,
    matches,
    parse_fs,
    print_fs,
    print_parts,
    simplify,
    subsumes,
    subsumes_cat,
    unify,
    unify_cat,
    _Bottom,
    _Graph,
)

from gramgrow.grammar import LHS, format_rule, parse_rule_line, slot
from gramgrow.resources import load_bundle

from genfs import GEN_REGISTRY, denotation, random_category, random_extension, random_fs

REG = FeatureRegistry.from_text(
    """
feature N + -
feature V + -
feature BAR 0 1 2 3
feature DET + -
feature PER 1 2 3
feature PLU + -
feature CAT NP N1 S VP DET
feature PERSON 1 2 3
"""
)


def fs(text):
    return parse_fs(text, REG).disjuncts[0]


def cat(text):
    return parse_fs(text, REG)


# -- parse / print -----------------------------------------------------------


def test_parse_simple_fs():
    c = cat("[N +, V -, BAR 2]")
    assert len(c) == 1
    assert len(c.disjuncts[0].root_features) == 3


def test_parse_category_disjunction():
    c = cat("{[DET +], [N +, V -]}")
    assert len(c) == 2


def test_parse_value_disjunction():
    c = cat("[BAR {1,2}]")
    v = c.disjuncts[0].get("BAR")
    assert v == frozenset({"1", "2"})


def test_singleton_value_set_collapses():
    with pytest.warns(UserWarning):
        c = cat("[BAR {1,1}]")
    assert c.disjuncts[0].get("BAR") == "1"


def test_parse_errors():
    with pytest.raises(UndeclaredFeature):
        cat("[WIBBLE +]")
    with pytest.raises(UndeclaredValue):
        cat("[BAR 9]")
    with pytest.raises(MalformedSyntax):
        cat("[N +")
    with pytest.raises(MalformedSyntax):
        cat("[N + V -]")


def test_parse_cyclic_or_clashing_tag_is_malformed():
    with pytest.raises(MalformedSyntax):
        parse_fs("[CAT #1 = [CAT #1]]")
    with pytest.raises(MalformedSyntax):
        cat("[PER #1 = 3, PERSON #1 = 2]")


def test_parse_error_messages_are_pinned():
    # the exception class and the message of each malformed input
    def rule(line):
        return parse_rule_line(line, None)

    bound = "a tag is bound to clashing or cyclic values"
    cases = [
        (cat, "[N +", MalformedSyntax, "expected rbrack, got None"),
        (cat, "[N + V -]", MalformedSyntax, "expected rbrack, got 'V'"),
        (cat, "[N ?]", MalformedSyntax, "cannot tokenize '?]'"),
        (cat, "[N +, N -] ;  ", MalformedSyntax, "cannot tokenize ';'"),
        (cat, "[N +] [V -]", MalformedSyntax, "trailing input after category: '['"),
        (cat, "[N +, N -]", MalformedSyntax, "duplicate feature 'N'"),
        (cat, "[CAT #1 = [PER 1, PER 2]]", MalformedSyntax, "duplicate feature 'PER'"),
        (cat, "[PER #1 = 3, PERSON #1 = 2]", MalformedSyntax, bound),
        (parse_fs, "[CAT #1 = [CAT #1]]", MalformedSyntax, bound),
        # the cycle runs through the LHS and the RHS
        (rule, "rule r : [A #1 = [B #2]] -> [C #2 = [D #1]]", MalformedSyntax, bound),
        (cat, "[N *]", UndeclaredValue, "wildcard only allowed in patterns"),
        (cat, "[WIBBLE +]", UndeclaredFeature, "undeclared feature 'WIBBLE'"),
        (cat, "[BAR 9]", UndeclaredValue, "value '9' not declared for feature 'BAR'"),
        (cat, "[BAR {1, 9}]", UndeclaredValue, "value '9' not declared for feature 'BAR'"),
        (cat, "[N", MalformedSyntax, "expected a value, got None"),
        (cat, "", MalformedSyntax, "expected lbrack, got None"),
        (cat, "[N +,]", MalformedSyntax, "expected atom, got ']'"),
    ]
    for parse, text, error, message in cases:
        with pytest.raises(error) as caught:
            parse(text)
        assert type(caught.value) is error and str(caught.value) == message, text
    for text in ("[BAR {1}]", "[CAT #1 = [BAR {1}], PER #1]"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cat(text)
        assert [str(w.message) for w in caught] == ["singleton value disjunction collapsed to '1'"], text


def test_reading_printed_values_gives_the_same_objects():
    # a rule line without a tag gives the joint structure the scratch graph builds
    tag_free = parse_rule_line("rule r : [A 1] -> [B [C {x, y}]] []", None)
    parts = zip([LHS, slot(1), slot(2)], ("[A 1]", "[B [C {x, y}]]", "[]"))
    assert tag_free.instances == (fs_from_pairs([(f, parse_fs(t).disjuncts[0]) for f, t in parts]),)
    registry, grammar, _, _, _ = load_bundle("demo")
    for rule in grammar.rules:
        again = parse_rule_line(format_rule(rule, registry), registry)
        assert len(again.instances) == len(rule.instances)
        assert all(a is b for a, b in zip(again.instances, rule.instances)), rule.id
    for bundle in ("demo", "claws"):
        registry, _, lexicon, _, _ = load_bundle(bundle)
        for entries in lexicon.entries.values():
            for entry in entries:
                (again,) = parse_fs(print_fs(entry, registry), registry).disjuncts
                assert again is entry


def test_print_parse_fixpoint():
    texts = [
        "[N +, V -, BAR 2]",
        "{[DET +], [N +, V -]}",
        "[BAR {1, 2}]",
        "[PER #1, CAT [PER #1]]",
        "[]",
        "⊥",
    ]
    for text in texts:
        once = print_fs(parse_fs(text, REG), REG)
        twice = print_fs(parse_fs(once, REG), REG)
        assert once == twice


def test_print_parse_fixpoint_random():
    rng = random.Random(7)
    for _ in range(200):
        c = random_category(rng)
        once = print_fs(c, GEN_REGISTRY)
        again = print_fs(parse_fs(once, GEN_REGISTRY), GEN_REGISTRY)
        assert once == again


def test_random_fs_draws_are_pinned():
    # a seed must keep drawing the same structures, or the seeded law tests
    # silently change their inputs
    rng = random.Random(5)
    got = [print_fs(random_fs(rng), GEN_REGISTRY) for _ in range(5)]
    assert got == [
        "[A 3, B [A 1, B #1=[A {1, 3}, C {1, 3}], C 2, D [B 2]], C #1, D #1]",
        "[B [A 1, C [B 1]]]",
        "[A {2, 3}]",
        "[A {1, 2}, C [B 1, C 4, D X], D X]",
        "[C [A 3, C 3, D [B 2, C 2]], D []]",
    ]


def test_registry_order_in_print():
    assert print_fs(cat("[V -, N +]"), REG) == "[N +, V -]"


def test_value_order_follows_the_registry_not_first_sight():
    # no other test uses Z8 or Z9: written first, Z8 is seen first, yet
    # output follows the declared order Z9, Z8
    reg = FeatureRegistry.from_text("feature Q Z9 Z8")
    d = parse_fs("[Q {Z8, Z9}]", reg).disjuncts[0]
    assert print_fs(d, reg) == "[Q {Z9, Z8}]"
    assert print_fs(d) == "[Q {Z8, Z9}]"
    assert [e.get("Q") for e in expand(Category((d,)), reg)] == ["Z9", "Z8"]
    assert d.get("Q") == frozenset({"Z8", "Z9"})


# -- subsumption -------------------------------------------------------------


def test_empty_subsumes_everything():
    assert subsumes(fs("[]"), fs("[PERSON 3]"))


def test_atomic_mismatch():
    assert not subsumes(fs("[PERSON 3]"), fs("[PERSON 2]"))
    assert not subsumes(fs("[PERSON 3]"), fs("[]"))


def test_value_set_subsumes_member():
    # oracle: enumerate both denotation sets and compare by containment
    wide = denotation(cat("[BAR {1,2}]"), REG)
    narrow = denotation(cat("[BAR 1]"), REG)
    assert all(any(equal(w, n) for w in wide) for n in narrow)
    assert subsumes(fs("[BAR {1,2}]"), fs("[BAR 1]"))
    assert not subsumes(fs("[BAR 1]"), fs("[BAR {1,2}]"))


def test_reentrancy_needed_in_specialization():
    shared = fs("[PER #1, CAT [PER #1]]")
    merely_equal = fs("[PER 3, CAT [PER 3]]")
    assert not subsumes(shared, merely_equal)
    bound = unify(shared, fs("[PER 3]"))
    assert subsumes(shared, bound)


def test_subsumes_preorder_random():
    rng = random.Random(11)
    structures = [random_fs(rng) for _ in range(60)]
    for d in structures:
        assert subsumes(d, d)
    for _ in range(500):
        a, b, c = rng.choice(structures), rng.choice(structures), rng.choice(structures)
        if subsumes(a, b) and subsumes(b, c):
            assert subsumes(a, c)


# -- unification -------------------------------------------------------------


def test_unify_identical():
    a = fs("[CAT NP, PERSON 3]")
    assert equal(unify(a, a), a)


def test_unify_clash():
    assert unify(fs("[CAT NP, PERSON 3]"), fs("[CAT NP, PERSON 2]")) is None


def test_empty_unifies_with_anything():
    rng = random.Random(3)
    for _ in range(50):
        d = random_fs(rng)
        assert equal(unify(FS.empty(), d), d)


def test_unify_narrows_shared_value_set():
    d = fs("[PER #1={1,2}, CAT [PER #1]]")
    r = unify(d, fs("[PER 1]"))
    assert r.get("PER") == "1"
    assert r.get("CAT").get("PER") == "1"


def test_unify_lub_random():
    rng = random.Random(13)
    checked = 0
    while checked < 500:
        d = random_fs(rng)
        d2 = random_fs(rng)
        r = unify(d, d2)
        if r is None:
            continue
        checked += 1
        assert subsumes(d, r) and subsumes(d2, r)
        e = random_extension(rng, r)
        assert subsumes(r, e)


def test_unify_at_matches_wrapper_oracle():
    rng = random.Random(23)
    seen = set()
    for _ in range(400):
        d, d2 = random_fs(rng), random_fs(rng)
        for feat in ("A", "C", "*R1*"):
            got = unify(d, d2, at=feat)
            assert got == unify(d, fs_from_pairs([(feat, d2)]))
            seen.add((got is None, feat in d.root_features))
    # failures, and successes both into a feature d has and one it lacks
    assert {(True, True), (False, True), (False, False)} <= seen


def _graph_unify(d, d2, at=None):
    """Unification by merging both structures in a scratch graph and freezing
    the result, with no shortcut."""
    graph = _Graph()
    root = graph.load(d)
    other = graph.load(d2)
    if at is not None:
        wrapper = graph.add()
        graph.feats[wrapper][at] = other
        other = wrapper
    try:
        graph.merge(root, other)
        return graph.freeze(root)
    except _Bottom:
        return None


def test_unify_returns_a_subsumed_operand_uncopied():
    rng = random.Random(29)
    proper = 0
    for _ in range(300):
        d = random_fs(rng)
        e = random_extension(rng, d)
        assert unify(e, d) is e and unify(d, e) is e
        assert e == _graph_unify(e, d) == _graph_unify(d, e)
        for feat in ("A", "*R1*"):
            w = fs_from_pairs([(feat, e)])
            assert unify(w, d, at=feat) is w
            assert w == _graph_unify(w, d, at=feat)
        proper += e != d
        # and any other pair gives the graph's result
        d2 = random_fs(rng)
        assert unify(d, d2) == _graph_unify(d, d2)
        assert unify(d, d2, at="A") == _graph_unify(d, d2, at="A")
    assert proper > 100


def test_unify_commutative_associative_idempotent():
    rng = random.Random(17)
    done = 0
    while done < 500:
        a, b, c = random_fs(rng), random_fs(rng), random_fs(rng)
        ab = unify(a, b)
        ba = unify(b, a)
        if (ab is None) != (ba is None):
            raise AssertionError("commutativity of failure")
        if ab is not None:
            assert equal(ab, ba)
        left = unify(ab, c) if ab is not None else None
        bc = unify(b, c)
        right = unify(a, bc) if bc is not None else None
        if (left is None) != (right is None):
            raise AssertionError("associativity of failure")
        if left is not None:
            assert equal(left, right)
        assert equal(unify(a, a), a)
        done += 1


# -- interning ---------------------------------------------------------------


def _same_nodes(a, b):
    """One structure object, so every node below is the same object too."""
    return a is b


def test_equal_structures_share_their_node_tuples():
    text = "[PER #1, CAT [PER #1, BAR {1, 2}], N +]"
    a, b = fs(text), fs(text)
    assert a is b and _same_nodes(a, b)
    assert print_fs(a, REG) == print_fs(b, REG) == "[N +, PER #1, CAT [BAR {1, 2}, PER #1]]"
    # sub-structures and expansions are interned too
    assert _same_nodes(a.get("CAT"), fs("[BAR {1, 2}, PER []]"))
    assert _same_nodes(expand(Category((a.get("CAT"),)))[1], fs("[BAR 2, PER []]"))


def test_equal_results_share_their_node_tuples_random():
    rng, cat_rng = random.Random(23), random.Random(29)
    shared = 0
    for _ in range(300):
        a, b = random_fs(rng), random_fs(rng)
        again = parse_fs(print_fs(a, GEN_REGISTRY), GEN_REGISTRY).disjuncts[0]
        assert again == a and _same_nodes(again, a)
        # a category, tags included, reads back as the same disjuncts
        c = random_category(cat_rng)
        again = parse_fs(print_fs(c, GEN_REGISTRY), GEN_REGISTRY)
        assert len(again) == len(c) and all(x is y for x, y in zip(again, c))
        ab, ba = unify(a, b), unify(b, a)
        if ab is not None:
            assert ab == ba and _same_nodes(ab, ba) and hash(ab) == hash(ba)
            assert print_fs(ab, GEN_REGISTRY) == print_fs(ba, GEN_REGISTRY)
            # equal values from parse, unify, get and expand are one object
            values = [ab, ba] + [ab.get(f) for f in ab.root_features] + expand(Category((ab,)))
            values = [v for v in values if isinstance(v, FS)]
            assert all(parse_fs(print_fs(v, GEN_REGISTRY), GEN_REGISTRY).disjuncts[0] is v for v in values)
            shared += 1
    assert shared > 50


# -- categories --------------------------------------------------------------


def test_unify_cat_cross_product():
    a = cat("{[PER 1], [PER 2]}")
    b = cat("{[PER 2], [PER 3]}")
    r = unify_cat(a, b)
    assert len(r) == 1 and r.disjuncts[0].get("PER") == "2"


def test_unify_cat_bottom_and_top():
    c = cat("{[N +], [N -]}")
    assert unify_cat(BOTTOM, c).is_bottom
    assert equal_cat(unify_cat(c, EMPTY_CAT), c)


def test_unify_cat_drops_bottom_members():
    r = unify_cat(cat("{[N +], [N -]}"), cat("{[N +]}"))
    assert equal_cat(r, cat("{[N +]}"))


def test_unify_cat_matches_expansion_oracle():
    rng = random.Random(19)
    done = 0
    while done < 300:
        c1 = random_category(rng)
        c2 = random_category(rng)
        if len(expand(c1, GEN_REGISTRY)) > 8 or len(expand(c2, GEN_REGISTRY)) > 8:
            continue
        done += 1
        got = denotation(unify_cat(c1, c2), GEN_REGISTRY)
        want = []
        for a in expand(c1, GEN_REGISTRY):
            for b in expand(c2, GEN_REGISTRY):
                r = unify(a, b)
                if r is not None:
                    want.append(r)
        want = denotation(Category(want), GEN_REGISTRY)
        assert len(got) == len(want)
        assert all(any(equal(g, w) for w in want) for g in got)


# -- expand ------------------------------------------------------------------


def test_expand_one_binary_choice():
    assert len(expand(cat("[BAR {1,2}, N +]"), REG)) == 2


def test_expand_disjuncts():
    assert len(expand(cat("{[PER 1], [PER 2]}"), REG)) == 2


def test_expand_cartesian_registry_order():
    got = [print_fs(Category((e,)), REG) for e in expand(cat("[BAR {1,2}, PLU {+,-}]"), REG)]
    assert got == [
        "[BAR 1, PLU +]",
        "[BAR 1, PLU -]",
        "[BAR 2, PLU +]",
        "[BAR 2, PLU -]",
    ]


def test_expand_cap():
    wide = cat("[BAR {0,1,2,3}, PER {1,2,3}, PLU {+,-}, N {+,-}, V {+,-}]")
    hits = []
    got = expand(wide, REG, cap=16, on_cap=hits.append)
    assert len(got) == 16 and hits == [96]
    assert expand(wide, REG, cap=16) == got  # no handler: the same prefix, no raise


def test_expand_cap_counts_every_disjunct():
    reg = FeatureRegistry.from_text(
        "feature A 1 2 3 4\nfeature B 1 2 3 4\nfeature C 1 2 3 4\nfeature D x"
    )
    c = parse_fs("{[A {1,2,3,4}, B {1,2,3,4}, C {1,2,3,4}], [D x]}", reg)
    hits = []
    got = expand(c, reg, on_cap=hits.append)
    assert hits == [65]
    assert got == expand(c, reg, cap=None)[:64]
    assert [print_fs(Category((e,)), reg) for e in got[:2]] == ["[A 1, B 1, C 1]", "[A 1, B 1, C 2]"]
    assert print_fs(Category((got[-1],)), reg) == "[A 4, B 4, C 4]"
    hits = []
    assert expand(c, reg, cap=None, on_cap=hits.append)[-1] == c.disjuncts[1]
    assert expand(c, reg, cap=65, on_cap=hits.append)[-1] == c.disjuncts[1]
    assert hits == []


def test_expand_shared_value_set_single_choice():
    c = cat("[PER #1={1,2}, CAT [PER #1]]")
    got = expand(c, REG)
    assert len(got) == 2
    for e in got:
        assert e.get("PER") == e.get("CAT").get("PER")


# Three features declare one value set in three orders, so the order in
# which a shared value disjunction prints and expands shows which feature
# reaching it decides.
SHARED_REG = FeatureRegistry.from_text(
    """
feature Q c b a
feature G x
feature P a b c
feature F x
feature R a c b
"""
)


def test_shared_value_disjunction_expands_in_its_first_canonical_features_order():
    # printed under Q, the registry's first feature; expanded in the order of
    # P, the feature of its first edge in the alphabetical walk
    c = parse_fs("[P #1={a, b}, Q #1]", SHARED_REG)
    assert print_fs(c, SHARED_REG) == "[Q #1={B, A}, P #1]"
    assert [print_fs(e, SHARED_REG) for e in expand(c, SHARED_REG)] == ["[Q #1=A, P #1]", "[Q #1=B, P #1]"]


def _random_shared_text(rng, depth=0):
    """A random structure literal over SHARED_REG in which tags #1-#3 join
    values, value disjunctions included, under any of the features."""
    parts = []
    for feat in rng.sample(["Q", "G", "P", "F", "R"], rng.randint(0, 4)):
        roll = rng.random()
        if feat in "GF" and depth < 2 and roll < 0.6:
            value = _random_shared_text(rng, depth + 1)
        elif feat in "GF" or roll < 0.5:
            value = "#%d" % rng.randint(1, 3)
        else:
            value = "{%s}" % ", ".join(rng.sample("abc", rng.randint(1, 3)))
            if roll < 0.8:
                value = "#%d=%s" % (rng.randint(1, 3), value)
        parts.append("%s %s" % (feat, value))
    return "[%s]" % ", ".join(parts)


def _value_text(value):
    if isinstance(value, FS):
        return print_fs(value)
    if isinstance(value, frozenset):
        return "{%s}" % ", ".join(sorted(value))
    return repr(value)


def test_print_expand_and_match_outputs_are_pinned():
    """One hash over what print_fs, print_parts, expand, get and matches give
    on seeded categories with shared value disjunctions and on unify
    results of random structures."""
    rng = random.Random(41)
    cases = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while len(cases) < 300:
            text = "{%s}" % ", ".join(_random_shared_text(rng) for _ in range(rng.randint(1, 2)))
            try:
                cases.append((parse_fs(text, SHARED_REG), SHARED_REG))
            except MalformedSyntax:
                continue
    draws = 0
    while draws < 200:
        ab = unify(random_fs(rng), random_fs(rng))
        if ab is not None:
            cases.append((Category((ab,)), GEN_REGISTRY))
            draws += 1
    lines = []
    for c, reg in cases:
        lines.append(print_fs(c))
        lines.append(print_fs(c, reg))
        for registry in (reg, None):
            caps = []
            images = expand(c, registry, cap=16, on_cap=caps.append)
            lines.append(" ".join(print_fs(e, reg) for e in images) + " %s" % caps)
        for d in c.disjuncts:
            feats = d.root_features
            lines.append(repr(sorted(print_parts(d, feats + ("Z",), reg).items())))
            lines.append(" ".join(_value_text(d.get(f)) for f in feats))
    pool = [d for c, reg in cases[:120] for d in c.disjuncts]
    for p in pool:
        lines.append("".join("%d%d" % (matches(p, d, True), matches(p, d, False)) for d in pool[:60]))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "41b9aa421199a33cde9add61a03b1bd7fbfdcfa4cbc05b6e837155860040aa88"


# -- equal -------------------------------------------------------------------


def test_equal_ignores_map_order():
    assert equal(fs("[PER 1, BAR 2]"), fs("[BAR 2, PER 1]"))


def test_equal_category_value_set_vs_disjunction():
    assert equal_cat(cat("[BAR {1,2}]"), cat("{[BAR 1], [BAR 2]}"))


def test_equal_is_mutual_subsumption():
    rng = random.Random(23)
    outcomes = set()
    for _ in range(300):
        a, b = random_fs(rng), random_fs(rng)
        reparsed = parse_fs(print_fs(a, GEN_REGISTRY), GEN_REGISTRY).disjuncts[0]
        for x, y in ((a, b), (unify(a, a), a), (reparsed, a), (a, random_extension(rng, a))):
            assert equal(x, y) == (subsumes(x, y) and subsumes(y, x))
            outcomes.add(equal(x, y))
    assert outcomes == {True, False}


# -- simplify ----------------------------------------------------------------


def test_simplify_idempotency_law():
    a = fs("[N +]")
    assert equal_cat(simplify(Category((a, a))), Category((a,)))


def test_simplify_bottom_law():
    r = unify_cat(cat("{[N +], [N -]}"), cat("[N +]"))
    assert equal_cat(r, cat("[N +]"))


def test_simplify_absorption():
    assert equal_cat(simplify(cat("{[N +], [N +, V -]}")), cat("{[N +]}"))


def _same_denotation(c1, c2):
    d1 = denotation(c1, GEN_REGISTRY)
    d2 = denotation(c2, GEN_REGISTRY)
    return len(d1) == len(d2) and all(any(equal(a, b) for b in d2) for a in d1)


def test_disjunction_laws_random():
    """Distribution, idempotency, bottom, top and interdefinability, checked
    at the denotation level."""
    rng = random.Random(29)
    for _ in range(150):
        a = random_category(rng, max_disjuncts=2)
        b = random_category(rng, max_disjuncts=2)
        c = random_category(rng, max_disjuncts=2)
        b_or_c = simplify(Category(b.disjuncts + c.disjuncts))
        # distribution: A ⊔ (B ∨ C) = (A ⊔ B) ∨ (A ⊔ C)
        lhs = unify_cat(a, b_or_c)
        rhs = simplify(Category(unify_cat(a, b).disjuncts + unify_cat(a, c).disjuncts))
        assert _same_denotation(lhs, rhs)
        # idempotency: A ∨ A = A
        assert _same_denotation(simplify(Category(a.disjuncts + a.disjuncts)), a)
        # bottom: ⊥ ∨ A = A
        assert _same_denotation(simplify(Category(BOTTOM.disjuncts + a.disjuncts)), a)
        # top: [] ∨ A = []
        topped = simplify(Category(EMPTY_CAT.disjuncts + a.disjuncts))
        assert _same_denotation(topped, EMPTY_CAT)
        # interdefinability: B covers A iff A ∨ B = B
        union = simplify(Category(a.disjuncts + b.disjuncts))
        assert subsumes_cat(b, a) == _same_denotation(union, b)


def _pairwise_simplify(c):
    """simplify as it was before duplicates were dropped first: every
    ordered pair of disjuncts is tested, duplicates included."""
    kept = []
    for i, d in enumerate(c.disjuncts):
        absorbed = False
        for j, e in enumerate(c.disjuncts):
            if i == j:
                continue
            if subsumes(e, d):
                if subsumes(d, e) and i < j:
                    continue  # mutually equal: the first occurrence survives
                absorbed = True
                break
        if not absorbed and not any(o == d for o in kept):
            kept.append(d)
    return Category(kept)


def test_simplify_matches_the_pairwise_reference_random():
    """The same disjuncts, in the same order, as the same objects, over
    categories with repeated disjuncts and absorbed disjuncts."""
    rng = random.Random(37)
    seen = {"repeated": 0, "absorbed": 0}
    for _ in range(400):
        seeds = [rng.randrange(10**6) for _ in range(rng.randint(1, 3))]
        pool = [random_fs(random.Random(s)) for s in seeds]
        pool += [random_extension(rng, rng.choice(pool)) for _ in range(rng.randint(0, 2))]
        c = Category([rng.choice(pool) for _ in range(rng.randint(1, 7))])
        got, want = simplify(c), _pairwise_simplify(c)
        assert len(got) == len(want)
        assert all(g is w for g, w in zip(got.disjuncts, want.disjuncts))
        ds = c.disjuncts
        pairs = [(a, b) for i, a in enumerate(ds) for b in ds[i + 1:]]
        seen["repeated"] += any(a is b for a, b in pairs)
        seen["absorbed"] += any(a != b and subsumes(b, a) for a in ds for b in ds)
    assert min(seen.values()) >= 50, seen


def test_simplify_preserves_denotation_random():
    rng = random.Random(31)
    for _ in range(200):
        c = random_category(rng)
        doubled = Category(c.disjuncts + c.disjuncts[:1])
        assert _same_denotation(simplify(doubled), c)
