import collections
import itertools

import pytest

from gramgrow.chart import ChartParser, ParseTree, ParserLimits, SessionFlags, parse
from gramgrow import fs as fs_module, grammar as grammar_module
from gramgrow.fs import Category, FeatureRegistry, parse_fs, unify, unify_cat
from gramgrow.grammar import LHS, Grammar, Lexicon, UnknownTerminal, cat_at, slot
from gramgrow.model import load_model
from gramgrow.resources import data_path, load_claws, load_demo


@pytest.fixture()
def demo():
    registry, _, lexicon, labels = load_demo()
    grammar = Grammar(registry)
    grammar.load_rules(data_path("demo.grammar"))
    model = load_model(data_path("demo.model"), registry)
    return registry, grammar, lexicon, labels, model


def full_flags(**kw):
    base = dict(learning=True, lp=True, types=True, hfc=True, binary_super=True)
    base.update(kw)
    return SessionFlags(**base)


# -- basic parsing --------------------------------------------------------------


def test_in_language_sentence_parses_without_learning(demo):
    registry, grammar, lexicon, _, model = demo
    res = parse("Sam chases the cat".split(), grammar, lexicon, model)
    assert res.n_parses >= 1
    assert res.learnt == []


def test_out_of_language_sentence_fails_without_learning(demo):
    registry, grammar, lexicon, _, _ = demo
    res = parse("Sam chases the happy cat".split(), grammar, lexicon)
    assert res.n_parses == 0


def test_learning_recovers_parse(demo):
    registry, grammar, lexicon, labels, model = demo
    res = parse(
        "Sam chases the happy cat".split(), grammar, lexicon, model, flags=full_flags()
    )
    assert res.n_parses == 1 and len(res.learnt) == 1


def test_unknown_terminal_raises(demo):
    registry, grammar, lexicon, _, _ = demo
    with pytest.raises(UnknownTerminal):
        parse("Sam chases the zebra".split(), grammar, lexicon)


def test_empty_input(demo):
    registry, grammar, lexicon, _, _ = demo
    res = parse([], grammar, lexicon, flags=full_flags())
    assert res.n_parses == 0 and res.edges_created == 0


# -- propose / extend / seed ------------------------------------------------------


def _session(demo, tokens, **kw):
    registry, grammar, lexicon, _, model = demo
    parser = ChartParser(grammar, lexicon, model, flags=full_flags(**kw))
    parser.chart = type(parser).parse.__globals__["Chart"](len(tokens))
    parser._init_lexical(tokens)
    return parser


def test_propose_builds_active_edge(demo):
    parser = _session(demo, ["Sam"])
    sam = parser.chart.edges[0]
    before = parser.chart.created
    parser.propose(sam)
    actives = [e for e in parser.chart.edges[before:] if not e.is_inactive]
    assert any(e.rule_id == "S1" for e in actives)


def test_propose_twice_adds_nothing(demo):
    parser = _session(demo, ["Sam"])
    sam = parser.chart.edges[0]
    parser.propose(sam)
    created = parser.chart.created
    parser.propose(sam)
    assert parser.chart.created == created


def test_propose_from_bad_edge_is_noop(demo):
    parser = _session(demo, ["Sam"])
    sam = parser.chart.edges[0]
    sam.bad = True
    created = parser.chart.created
    parser.propose(sam)
    assert parser.chart.created == created


def test_extend_category_mismatch_yields_nothing(demo):
    parser = _session(demo, ["the", "chases"])
    det, verb = parser.chart.edges[:2]
    parser.propose(det)  # NP1 active edge: Det . N1
    active = next(e for e in parser.chart.edges if not e.is_inactive)
    created = parser.chart.created
    parser.extend(active, verb)
    assert parser.chart.created == created


def test_seed_super_adds_proposals_everywhere(demo):
    parser = _session(demo, "Sam chases the happy cat".split())
    parser._run()
    before = parser.chart.created
    parser.seed_super()
    new_actives = [
        e for e in parser.chart.edges[before:] if not e.is_inactive and e.rule_id.startswith("*super-")
    ]
    starts = {e.start for e in new_actives}
    assert starts == {0, 1, 2, 3, 4}


def test_unary_and_binary_seeding_beats_binary_alone(demo):
    registry, _, lexicon, _, model = demo

    def run(unary):
        g = Grammar(registry)
        g.load_rules(data_path("demo.grammar"))
        return parse(
            "the happy cat".split(), g, lexicon, model, flags=full_flags(unary_super=unary)
        )

    both = run(True)
    binary_only = run(False)
    assert both.edges_created > binary_only.edges_created
    assert binary_only.n_parses == 1 and len(binary_only.learnt) == 1


# -- resource bounds ----------------------------------------------------------------


def test_limits_validation():
    with pytest.raises(ValueError):
        ParserLimits(max_parses=0)
    with pytest.raises(ValueError):
        ParserLimits(max_edges=0)
    defaults = ParserLimits.learning_default()
    assert defaults.max_parses == 1 and defaults.max_edges == 3000


def test_edge_limit_flags_resource_bounded(demo):
    registry, grammar, lexicon, _, model = demo
    res = parse(
        "Sam chases the happy cat".split(),
        grammar,
        lexicon,
        model,
        flags=full_flags(lp=False, types=False),
        limits=ParserLimits(max_edges=20),
    )
    assert res.resource_bounded
    assert res.edges_created <= 20


def test_parse_limit_stops_early(demo):
    registry, grammar, lexicon, _, model = demo
    res = parse(
        "Sam chases the happy cat".split(),
        grammar,
        lexicon,
        model,
        flags=full_flags(lp=False, types=False),
        limits=ParserLimits(max_parses=1),
    )
    assert res.n_parses == 1
    assert not res.resource_bounded


def test_bad_edges_count_toward_edge_total(demo):
    registry, grammar, lexicon, _, model = demo
    res = parse("Sam chases happy the cat".split(), grammar, lexicon, model, flags=full_flags())
    bad = [e for e in res.chart.edges if e.bad]
    assert bad
    assert res.edges_created == len(res.chart.edges)


# -- invariants -----------------------------------------------------------------------


def test_fixpoint_when_unbounded(demo):
    registry, grammar, lexicon, _, model = demo
    parser = ChartParser(grammar, lexicon, model, flags=full_flags())
    parser.parse("Sam chases the happy cat".split())
    created = parser.chart.created
    for edge in list(parser.chart.edges):
        if edge.bad:
            continue
        if edge.is_inactive:
            parser.propose(edge)
            for a in list(parser.chart.edges):
                if not a.is_inactive and not a.bad and a.end == edge.start:
                    parser.extend(a, edge)
        else:
            for i in list(parser.chart.edges):
                if i.is_inactive and not i.bad and i.start == edge.end:
                    parser.extend(edge, i)
    assert parser.chart.created == created


def test_no_super_edges_with_learning_off(demo):
    registry, grammar, lexicon, _, model = demo
    res = parse("Sam chases the cat".split(), grammar, lexicon, model)
    assert all(
        e.rule_id is None or not e.rule_id.startswith("*super-") for e in res.chart.edges
    )


def test_unary_chains_bounded_by_max_bar(demo):
    registry, _, lexicon, _, model = demo
    g = Grammar(registry)
    g.load_rules(data_path("demo.grammar"))
    res = parse(
        "the happy cat".split(), g, lexicon, model, flags=full_flags(unary_super=True)
    )
    for tree in res.trees:
        for node in tree.walk():
            depth = 0
            walk = node
            while walk is not None and not walk.is_leaf and len(walk.children) == 1:
                depth += 1
                walk = walk.children[0]
            assert depth <= g.max_bar


def test_ambiguous_pp_yields_multiple_distinct_trees(demo):
    registry, grammar, lexicon, _, model = demo
    res = parse(
        "Sam chases the cat down the road".split(), grammar, lexicon, model, flags=full_flags()
    )
    displays = {t.display() for t in res.trees}
    assert len(displays) >= 2


def test_extract_trees_no_spanning_edge(demo):
    registry, grammar, lexicon, _, _ = demo
    res = parse("Sam chases the happy cat".split(), grammar, lexicon)
    assert res.trees == []


# -- CKY completeness oracle ------------------------------------------------------------


TOY_REG = FeatureRegistry.from_text("feature CAT S NP VP DET N V")

TOY_RULES = [
    ("S", ("NP", "VP")),
    ("NP", ("DET", "N")),
    ("VP", ("V", "NP")),
    ("VP", ("V",)),
]

TOY_LEX = {"d": "DET", "n": "N", "v": "V"}


def _toy_grammar():
    g = Grammar(TOY_REG)
    lex = Lexicon(TOY_REG)
    from gramgrow.grammar import parse_rule_line

    for i, (lhs, rhs) in enumerate(TOY_RULES):
        cats = " ".join("[CAT %s]" % c for c in rhs)
        g.add_original(parse_rule_line("rule r%d : [CAT %s] -> %s" % (i, lhs, cats), TOY_REG))
    for tok, label in TOY_LEX.items():
        lex.add(tok, parse_fs("[CAT %s]" % label, TOY_REG).disjuncts[0])
    return g, lex


def _cky_trees(tokens):
    """Brute-force enumeration of all parse trees over the atomic grammar."""
    n = len(tokens)
    table = {}

    def fill(i, j):
        if (i, j) in table:
            return table[(i, j)]
        out = []
        if j == i + 1:
            out.append((TOY_LEX[tokens[i]], tokens[i]))
        table[(i, j)] = out
        # binary rules
        for k in range(i + 1, j):
            for lhs, rhs in TOY_RULES:
                if len(rhs) != 2:
                    continue
                for left in fill(i, k):
                    if left[0] != rhs[0]:
                        continue
                    for right in fill(k, j):
                        if right[0] == rhs[1]:
                            out.append((lhs, left, right))
        # unary rules to fixpoint
        changed = True
        while changed:
            changed = False
            for lhs, rhs in TOY_RULES:
                if len(rhs) != 1:
                    continue
                for sub in list(out):
                    cand = (lhs, sub)
                    if sub[0] == rhs[0] and cand not in out:
                        out.append(cand)
                        changed = True
        return out

    return [t for t in fill(0, n) if t[0] == "S"]


def _tree_shape(tree):
    if tree.is_leaf:
        label = tree.cat.disjuncts[0].get("CAT")
        return (label, tree.token)
    label = tree.cat.disjuncts[0].get("CAT")
    return tuple([label] + [_tree_shape(c) for c in tree.children])


def _norm_cky(tree):
    if len(tree) == 2 and isinstance(tree[1], str):
        return (tree[0], tree[1])
    return tuple([tree[0]] + [_norm_cky(c) for c in tree[1:]])


def test_parse_matches_cky_oracle_up_to_length_six():
    g, lex = _toy_grammar()
    root = parse_fs("[CAT S]", TOY_REG)
    for length in range(1, 7):
        for tokens in itertools.product(sorted(TOY_LEX), repeat=length):
            want = {_norm_cky(t) for t in _cky_trees(list(tokens))}
            res = parse(list(tokens), g, lex, root=root)
            got = {_tree_shape(t) for t in res.trees}
            assert got == want, (tokens, got, want)


def test_super_rules_subsume_everything_learnt(demo):
    registry, grammar, lexicon, _, model = demo
    from gramgrow.grammar import rule_subsumes, super_rule

    res = parse(
        "Sam chases the cat down the road".split(), grammar, lexicon, model, flags=full_flags()
    )
    assert res.learnt
    sup = {1: super_rule(1), 2: super_rule(2)}
    for rule in res.learnt:
        assert rule_subsumes(sup[rule.arity], rule)


def test_hfc_holds_for_every_rule_learnt_under_hfc(demo):
    registry, grammar, lexicon, _, model = demo
    from hfc import hfc_check

    res = parse(
        "Sam chases the cat down the road".split(),
        grammar,
        lexicon,
        model,
        flags=full_flags(hfc=True),
    )
    assert res.learnt
    for rule in res.learnt:
        assert hfc_check(rule, model.nonhead)
        for d in rule.lhs.disjuncts:
            for feat in d.root_features:
                assert feat == "BAR" or feat not in model.nonhead


def test_learning_without_model_uses_xbar_only(demo):
    registry, _, lexicon, _, _ = demo
    g = Grammar(registry)
    g.load_rules(data_path("demo.grammar"))
    res = parse("Sam chases the happy cat".split(), g, lexicon, model=None, flags=full_flags())
    assert res.n_parses >= 1 and res.learnt


# -- the grammar's combine memo -----------------------------------------------------


# acceptance criterion 11: the training sentences and the held-out lines
C11_TRAIN = [
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
C11_HELD_OUT = [
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
DEMO_SENTENCES = [
    "Sam chases the cat",
    "Sam chases the happy cat",
    "Sam chases happy the cat",
    "the happy cat",
]


class _NoMemo(dict):
    """A memo that forgets everything: every combination is computed."""

    def __setitem__(self, key, value):
        pass


def _learn_c11(g, lexicon, model):
    """Learn from the training sentences; the bad_reason of every edge."""
    flags = SessionFlags(learning=True, hfc=True)
    reasons = []
    for line in C11_TRAIN:
        res = parse(line.split(), g, lexicon, model, flags=flags)
        reasons.append([e.bad_reason for e in res.chart.edges])
    return reasons


def _c11_grammar(registry, lexicon, model):
    g = Grammar(registry)
    g.load_rules(data_path("demo.grammar"))
    _learn_c11(g, lexicon, model)
    return g


def _observed(grammar, lexicon, model):
    out = []
    runs = [(s, ParserLimits(max_edges=3000)) for s in DEMO_SENTENCES]
    runs += [(s, ParserLimits.learning_default()) for s in C11_HELD_OUT]
    for sentence, limits in runs:
        res = parse(sentence.split(), grammar, lexicon, model, limits=limits)
        out.append((
            [t.display() for t in res.trees],
            res.n_parses,
            res.edges_created,
            res.resource_bounded,
            [e.instances for e in res.chart.edges],
        ))
    return out


def test_combine_memo_is_transparent(demo):
    registry, _, lexicon, _, model = demo
    g = _c11_grammar(registry, lexicon, model)
    assert g.learnt
    cold = _observed(g, lexicon, model)
    assert g.combine_memo
    warm = _observed(g, lexicon, model)
    fresh = _observed(_c11_grammar(registry, lexicon, model), lexicon, model)
    unmemoised = _c11_grammar(registry, lexicon, model)
    unmemoised.combine_memo = _NoMemo()
    reference = _observed(unmemoised, lexicon, model)
    assert cold == warm == fresh == reference
    assert any(bounded for _, _, _, bounded, _ in reference)


def test_combine_memo_keeps_learning_unchanged(demo):
    registry, _, lexicon, _, model = demo
    memoised, unmemoised = Grammar(registry), Grammar(registry)
    for g in (memoised, unmemoised):
        g.load_rules(data_path("demo.grammar"))
    unmemoised.combine_memo = _NoMemo()  # the mutators clear it, never rebind it
    reasons = _learn_c11(memoised, lexicon, model)
    assert reasons == _learn_c11(unmemoised, lexicon, model)
    assert any("redundant" in edges for edges in reasons)
    assert [(r.id, r.instances) for r in memoised.learnt] == [
        (r.id, r.instances) for r in unmemoised.learnt
    ]


def _rejections_and_learnt_ids(g, lexicon, model, sentences):
    flags = SessionFlags(learning=True, hfc=True, unary_super=True)
    rejected = collections.Counter()
    for sentence in sentences:
        res = parse(
            sentence.split(), g, lexicon, model, flags=flags, limits=ParserLimits.learning_default()
        )
        rejected.update(e.bad_reason for e in res.chart.edges if e.bad)
    return dict(rejected), [r.id for r in g.learnt]


def test_rejection_histogram_and_learnt_ids_are_pinned(demo):
    registry, _, lexicon, _, model = demo
    with_model, without_model = Grammar(registry), Grammar(registry)
    for g in (with_model, without_model):
        g.load_rules(data_path("demo.grammar"))
    assert _rejections_and_learnt_ids(with_model, lexicon, model, C11_TRAIN) == (
        {
            "lp:LP1": 143, "lp:LP1,LP2": 2, "lp:LP1;type": 21, "lp:LP2": 1, "lp:LP3": 3,
            "lp:LP3;type": 5, "lp:LP4": 1, "max-bar": 31, "no-bar": 7, "redundant": 73,
            "type": 81,
        },
        [
            "*unary2", "*unary12", "*binary9", "*binary31", "*binary55", "*unary99",
            "*binary122", "*unary129", "*unary131", "*binary153", "*binary194", "*unary196",
            "*unary202", "*binary230", "*binary237",
        ],
    )
    assert _rejections_and_learnt_ids(without_model, lexicon, None, C11_TRAIN) == (
        {"max-bar": 17, "no-bar": 7, "redundant": 36},
        [
            "*binary7", "*binary14", "*binary66", "*binary74", "*binary115", "*binary171",
            "*binary194", "*binary215", "*unary218", "*binary357",
        ],
    )
    claws_registry, claws_lexicon, _ = load_claws()
    claws_sentences = ["AT NN1 VVZ AT NN1", "AT JJ NN1", "AT AT NN1", "II AT NN1"]
    assert _rejections_and_learnt_ids(
        Grammar(claws_registry), claws_lexicon, None, claws_sentences
    ) == (
        {"minor": 6, "no-head-candidate": 1},
        [
            "*binary6", "*unary3", "*binary34", "*binary63", "*binary70", "*binary81",
            "*unary91", "*binary101",
        ],
    )


def test_edge_categories_equal_a_fresh_cat_at(demo):
    registry, _, lexicon, _, model = demo
    g = Grammar(registry)
    g.load_rules(data_path("demo.grammar"))
    learning = SessionFlags(learning=True, hfc=True)
    runs = [(s, learning, ParserLimits()) for s in C11_TRAIN]
    runs += [(s, None, ParserLimits(max_edges=3000)) for s in DEMO_SENTENCES]
    runs += [(s, None, ParserLimits.learning_default()) for s in C11_HELD_OUT]
    fresh = {}  # computed afresh once per distinct argument pair

    def check(got, instances, feat):
        # the memo's own entry, and equal to one computed afresh
        assert got is g.category_at(instances, feat)
        if (instances, feat) not in fresh:
            fresh[instances, feat] = cat_at(instances, feat)
        assert got == fresh[instances, feat]

    checked = 0
    for sentence, flags, limits in runs:
        res = parse(sentence.split(), g, lexicon, model, flags=flags, limits=limits)
        for edge in res.chart.edges:
            if edge.is_lexical:
                assert edge.cat() == Category(edge.instances)
                continue
            check(edge.cat(), edge.instances, LHS)
            for i in range(1, edge.arity + 1):
                check(edge.slot_cat(i), edge.instances, slot(i))
            checked += 1
    assert g.learnt and checked > 1000


def test_node_table_stops_growing_when_a_session_is_repeated(demo):
    registry, _, lexicon, _, model = demo
    sizes = []
    for _ in range(2):
        g = _c11_grammar(registry, lexicon, model)
        for sentence in DEMO_SENTENCES:
            parse(sentence.split(), g, lexicon, model, flags=full_flags())
        sizes.append(len(fs_module._NODES))
    assert sizes[0] == sizes[1]


def test_a_refused_rule_is_aliased_from_its_one_subsumption_scan(demo, monkeypatch):
    registry, _, lexicon, _, model = demo
    g = Grammar(registry)
    g.load_rules(data_path("demo.grammar"))
    calls = {"all": 0, "in_add_learnt": 0}
    inside = []
    plain_subsumes = grammar_module.rule_subsumes
    plain_add = Grammar.add_learnt

    def counting_subsumes(r, s):
        calls["all"] += 1
        calls["in_add_learnt"] += bool(inside)
        return plain_subsumes(r, s)

    refused = []

    def add_learnt(self, rule, support=None, aliases=None):
        inside.append(rule)
        try:
            stored = plain_add(self, rule, support, aliases)
        finally:
            inside.pop()
        if stored is None:
            refused.append((rule, aliases[rule.id]))
        return stored

    monkeypatch.setattr(grammar_module, "rule_subsumes", counting_subsumes)
    monkeypatch.setattr(Grammar, "add_learnt", add_learnt)
    _learn_c11(g, lexicon, model)
    assert refused and g.learnt
    for rule, alias in refused:
        assert plain_subsumes(g.rule(alias), rule)
    # every subsumption test belongs to some add_learnt's scan
    assert calls["all"] == calls["in_add_learnt"] > 0


# -- the redundancy check ------------------------------------------------------------


def _covered_reference(grammar, arity, rhs):
    """Some same-arity original rule instance unifies with one disjunct of
    every RHS category: the plain product over daughter disjuncts."""
    for rule in grammar.original:
        if rule.arity != arity:
            continue
        for inst in rule.instances:
            for combo in itertools.product(*[c.disjuncts for c in rhs]):
                u = inst
                for i, d in enumerate(combo, start=1):
                    u = u and unify(u, d, at=slot(i))
                if u is not None:
                    return True
    return False


class _CheckedParser(ChartParser):
    """Records each redundancy verdict next to the reference's."""

    def _covered_by_original(self, arity, rhs):
        got = super()._covered_by_original(arity, rhs)
        self.verdicts.append((got, _covered_reference(self.grammar, arity, rhs)))
        return got


def test_redundancy_check_matches_product_reference(demo):
    registry, _, lexicon, _, model = demo
    g = Grammar(registry)
    g.load_rules(data_path("demo.grammar"))
    flags = SessionFlags(learning=True, hfc=True)
    runs = [(s, ParserLimits(max_edges=3000)) for s in DEMO_SENTENCES]
    runs += [(s, ParserLimits()) for s in C11_TRAIN]
    verdicts = []
    for sentence, limits in runs:
        parser = _CheckedParser(g, lexicon, model, flags=flags, limits=limits)
        parser.verdicts = verdicts
        parser.parse(sentence.split())
    assert {got for got, _ in verdicts} == {True, False}
    assert all(got == want for got, want in verdicts)


# -- tree extraction ------------------------------------------------------------------


EXTRACTION_SENTENCES = C11_TRAIN + C11_HELD_OUT + [
    "the road chases the happy happy happy cat",
    "Sam down the road chases",
    "Sam road chases the cat",
]


def _reference_trees(parser, edge, forced, calls):
    """Every tree over edge, each shared sub-edge derived again on every path
    that reaches it; calls counts the derivations per (edge, forced)."""
    calls[edge.id, forced] = calls.get((edge.id, forced), 0) + 1
    if edge.is_lexical:
        cat = unify_cat(Category(edge.instances), forced)
        if not cat.is_bottom:
            yield ParseTree(cat, token=edge.token)
        return
    narrowed = parser.grammar.survivors(edge.instances, LHS, forced.disjuncts)
    if not narrowed:
        return
    node_cat = parser.grammar.category_at(narrowed, LHS)
    rule_id = edge.built_rule.id if edge.built_rule is not None else edge.rule_id
    child_lists = [
        list(_reference_trees(
            parser, parser.chart.edge(cid), parser.grammar.category_at(narrowed, slot(i)), calls
        ))
        for i, cid in enumerate(edge.children, start=1)
    ]
    for combo in itertools.product(*child_lists):
        yield ParseTree(node_cat, rule_id=rule_id, children=combo)


def _extraction_runs(demo):
    """A parser that has parsed each sentence, all parses kept, under the
    3000-edge bound on the criterion-11 grammar."""
    registry, _, lexicon, _, model = demo
    g = _c11_grammar(registry, lexicon, model)
    for sentence in EXTRACTION_SENTENCES:
        parser = ChartParser(g, lexicon, model, limits=ParserLimits(None, 3000))
        parser.parse(sentence.split())
        yield parser


def test_extracted_trees_match_the_unshared_reference(demo):
    many = 0
    for parser in _extraction_runs(demo):
        want = [
            tree.display()
            for edge, forced in parser.spanning
            for tree in _reference_trees(parser, edge, forced, {})
        ]
        for k in (1, 5, None):
            got = [tree.display() for tree in parser.extract_trees(k)]
            assert got == want[:k]
        many += len(want) > 100
    assert many >= 3


def test_extraction_derives_each_edge_once_per_forced_category(demo, monkeypatch):
    plain = ChartParser._edge_trees
    calls = {}

    def counting(self, edge, forced, memo):
        calls[edge.id, forced] = calls.get((edge.id, forced), 0) + 1
        return plain(self, edge, forced, memo)

    monkeypatch.setattr(ChartParser, "_edge_trees", counting)
    shared = 0
    for parser in _extraction_runs(demo):
        calls.clear()
        parser.extract_trees()
        assert all(n == 1 for n in calls.values())
        unshared = {}
        for edge, forced in parser.spanning:
            list(_reference_trees(parser, edge, forced, unshared))
        assert unshared.keys() == calls.keys()
        shared += sum(unshared.values()) > len(unshared)
    assert shared >= 3
