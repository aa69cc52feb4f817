import ast
import collections
import gc
import hashlib
import importlib.util
import io
import itertools
import os
import weakref

import pytest

from gramgrow.chart import ChartParser, ParseTree, ParserLimits, SessionFlags, parse
from gramgrow.cli import Session, run_repl
from gramgrow.evaluate import gen_random, undergen
from gramgrow import (
    chart as chart_module,
    constructor as constructor_module,
    fs as fs_module,
    grammar as grammar_module,
    model as model_module,
    refine as refine_module,
    scoring as scoring_module,
)
from gramgrow.fs import Category, FeatureRegistry, parse_fs, subsumes_cat, unify, unify_cat
from gramgrow.grammar import (
    LHS,
    Grammar,
    Lexicon,
    Rule,
    UnknownTerminal,
    cat_at,
    format_rule,
    make_rule,
    max_bar_of,
    narrow,
    slot,
    super_rule,
)
from gramgrow.model import load_model
from gramgrow.resources import data_path, load_bundle


@pytest.fixture()
def demo():
    registry, grammar, lexicon, model, labels = load_bundle("demo")
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


def test_every_lexical_entry_of_a_word_gives_an_edge(demo):
    registry, grammar, lexicon, _, model = demo
    (noun,) = lexicon.lexical_categories("cat")
    (verb,) = lexicon.lexical_categories("chases")
    ambiguous = Lexicon(registry)
    for word in lexicon.terminals:
        if word == "chases":
            ambiguous.add(word, noun)  # a noun entry ahead of the verb entry
        for d in lexicon.lexical_categories(word):
            ambiguous.add(word, d)
    ambiguous.add("chases", verb)  # a repeated entry gives no second edge
    res = parse("Sam chases the cat".split(), grammar, ambiguous, model)
    assert [e.instances for e in res.chart.edges if e.token == "chases"] == [(noun,), (verb,)]
    assert res.n_parses == parse("Sam chases the cat".split(), grammar, lexicon, model).n_parses >= 1


# -- propose / extend / seed ------------------------------------------------------


def _session(demo, tokens, **kw):
    registry, grammar, lexicon, _, model = demo
    parser = ChartParser(grammar, lexicon, model, flags=full_flags(**kw))
    parser._start(len(tokens))
    parser._init_lexical(tokens)
    return parser


def test_propose_builds_active_edge(demo):
    parser = _session(demo, ["Sam"])
    sam = parser.chart.edges[0]
    before = len(parser.chart.edges)
    parser.propose(sam)
    actives = [e for e in parser.chart.edges[before:] if not e.is_inactive]
    assert any(e.rule_id == "S1" for e in actives)


def test_extend_category_mismatch_yields_nothing(demo):
    parser = _session(demo, ["the", "chases"])
    det, verb = parser.chart.edges[:2]
    parser.propose(det)  # NP1 active edge: Det . N1
    active = next(e for e in parser.chart.edges if not e.is_inactive)
    created = len(parser.chart.edges)
    parser.extend(active, verb)
    assert len(parser.chart.edges) == created


def test_seed_super_adds_proposals_everywhere(demo):
    parser = _session(demo, "Sam chases the happy cat".split())
    parser._run()
    before = len(parser.chart.edges)
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
    defaults = ParserLimits(1, 3000)
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


def test_the_trace_sees_the_edge_that_ends_a_bounded_parse(demo):
    registry, grammar, lexicon, _, model = demo
    for sentence, flags in (("Sam chases the cat", None), ("Sam chases the happy cat", full_flags())):
        traced = []
        res = parse(
            sentence.split(), grammar, lexicon, model, flags=flags,
            limits=ParserLimits(1, None), trace=traced.append,
        )
        assert res.n_parses == 1
        assert traced == res.chart.edges


def test_bad_edges_count_toward_edge_total(demo):
    registry, grammar, lexicon, _, model = demo
    res = parse("Sam chases happy the cat".split(), grammar, lexicon, model, flags=full_flags())
    bad = [e for e in res.chart.edges if e.bad]
    assert bad
    assert res.edges_created == len(res.chart.edges)


# -- invariants -----------------------------------------------------------------------


def _edge_key(edge):
    """What tells two edges apart: a lexical edge has no children, and its
    entry stands in for them."""
    return (edge.rule_id, edge.start, edge.end, edge.children or edge.instances)


def test_fixpoint_when_unbounded(demo):
    """Closure: proposing and extending the finished chart's edges again
    makes only edges the chart already holds."""
    registry, grammar, lexicon, _, model = demo
    parser = ChartParser(grammar, lexicon, model, flags=full_flags())
    parser.parse("Sam chases the happy cat".split())
    edges = list(parser.chart.edges)
    keys = {_edge_key(e) for e in edges}
    assert len(keys) == len(edges)
    for edge in edges:
        if edge.bad:
            continue
        if edge.is_inactive:
            parser.propose(edge)
            for a in edges:
                if not a.is_inactive and not a.bad and a.end == edge.start:
                    parser.extend(a, edge)
        else:
            for i in edges:
                if i.is_inactive and not i.bad and i.start == edge.end:
                    parser.extend(edge, i)
    again = parser.chart.edges[len(edges):]
    assert again
    assert all(_edge_key(e) in keys for e in again)


@pytest.mark.parametrize("learning", [False, True])
def test_a_parser_is_freed_without_the_cyclic_collector(demo, learning):
    registry, grammar, lexicon, _, model = demo
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = ChartParser(grammar, lexicon, model, flags=full_flags(learning=learning))
        result = parser.parse("Sam chases the happy cat".split())
        assert len(result.learnt) == learning
        ref = weakref.ref(parser)
        del parser, result
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_cold_learning_parses_leave_no_reference_cycles(demo, monkeypatch):
    """With every memo bypassed, so that the fs walks run, learning parses
    leave nothing for the cyclic collector."""
    _, grammar, lexicon, _, model = demo
    _uncache(monkeypatch)
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for sentence in ("Sam chases the happy cat", "the happy cat chases Sam down the road"):
            result = parse(sentence.split(), grammar, lexicon, model, flags=full_flags())
            assert result.learnt
        del result
        gc.collect()
        left = collections.Counter(type(o).__qualname__ for o in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not left, left.most_common(5)


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
            assert depth <= max_bar_of(registry)


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
    """Every spanning edge counts a parse; the oracle's are the S trees."""
    g, lex = _toy_grammar()
    for length in range(1, 7):
        for tokens in itertools.product(sorted(TOY_LEX), repeat=length):
            want = {_norm_cky(t) for t in _cky_trees(list(tokens))}
            res = parse(list(tokens), g, lex)
            got = {shape for shape in map(_tree_shape, res.trees) if shape[0] == "S"}
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
# the eval benchmark's undergeneration line that a chart making every edge
# cuts short at ParserLimits(1, 3000); its first tree, taken at
# ParserLimits(1, 10000) from such a chart (9,474 edges):
BOUNDED_EVAL = "the happy cat down the road chases the happy road"
BOUNDED_EVAL_TREE = (
    '("*binary35" (("*binary12" (("NP1" ((|the|) ("*binary1" ((|happy|) (|cat|)))))'
    ' ("*binary8" (("*binary4" ((|down|) (|the|))) ("*binary26" ((|road|) (|chases|)))))))'
    ' ("NP1" ((|the|) ("*binary1" ((|happy|) ("N1" ((|road|)))))))))'
)
DEMO_SENTENCES = [
    "Sam chases the cat",
    "Sam chases the happy cat",
    "Sam chases happy the cat",
    "the happy cat",
]


CACHED = (
    grammar_module.cat_at,
    grammar_module.narrow,
    grammar_module._unified,
    grammar_module.proposals,
    grammar_module._covers,
    grammar_module._root_atoms,
    grammar_module._alternative,
    constructor_module._instance,
    model_module._most_specific,
    chart_module._verdict,
    chart_module._covers_cat,
    scoring_module._compatible,
)
# caches that make one object per value: transparency is not theirs to show,
# since `is` and `==` coincide on what they make
INTERNERS = (
    grammar_module.super_rule,
    grammar_module.rule_of,
    fs_module._registry,
    model_module._model,
)


def test_every_cached_function_is_tested_for_transparency_or_interns():
    """Every memo in the package is in CACHED, which _uncache and the
    transparency tests cover, or in INTERNERS."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "gramgrow")
    memos = ("functools.cache", "functools.lru_cache")
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                ast.unparse(d).startswith(memos) for d in node.decorator_list
            ):
                found.append(("gramgrow." + name[:-3], node.name))
    listed = [(f.__module__, f.__wrapped__.__name__) for f in CACHED + INTERNERS]
    assert sorted(found) == sorted(listed)


def _uncache(m):
    """Bind each cached function's plain body in its place, at every binding,
    so that every value is computed afresh."""
    modules = (
        grammar_module, chart_module, constructor_module, model_module, refine_module, scoring_module
    )
    for module in modules:
        for name, value in list(vars(module).items()):
            if any(value is f for f in CACHED):
                m.setattr(module, name, value.__wrapped__)


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
    runs += [(s, ParserLimits(1, 3000)) for s in C11_HELD_OUT]
    # first-parse parses keep fewer edges: two held-out lines need over 500
    runs += [(s, ParserLimits(1, 500)) for s in C11_HELD_OUT]
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


def test_combine_memo_is_transparent(demo, monkeypatch):
    registry, _, lexicon, _, model = demo
    g = _c11_grammar(registry, lexicon, model)
    assert g.learnt
    cold = _observed(g, lexicon, model)
    assert all(f.cache_info().currsize for f in (
        narrow, grammar_module._unified, grammar_module.proposals, chart_module._covers_cat))
    warm = _observed(g, lexicon, model)
    fresh = _observed(_c11_grammar(registry, lexicon, model), lexicon, model)
    with monkeypatch.context() as m:
        _uncache(m)
        unmemoised = _c11_grammar(registry, lexicon, model)
        reference = _observed(unmemoised, lexicon, model)
    assert cold == warm == fresh == reference
    assert any(bounded for _, _, _, bounded, _ in reference)


def test_combine_memo_keeps_learning_unchanged(demo, monkeypatch):
    registry, _, lexicon, _, model = demo
    memoised, unmemoised = Grammar(registry), Grammar(registry)
    for g in (memoised, unmemoised):
        g.load_rules(data_path("demo.grammar"))
    reasons = _learn_c11(memoised, lexicon, model)
    with monkeypatch.context() as m:
        _uncache(m)
        assert reasons == _learn_c11(unmemoised, lexicon, model)
    assert any("redundant" in edges for edges in reasons)
    assert [(r.id, r.instances) for r in memoised.learnt] == [
        (r.id, r.instances) for r in unmemoised.learnt
    ]


def test_each_instance_disjunct_pair_is_unified_once_per_process(demo, monkeypatch):
    registry, _, lexicon, _, model = demo
    narrow.cache_clear()  # cold, whatever ran before
    grammar_module._unified.cache_clear()
    calls = collections.Counter()
    unify_at = grammar_module.fsmod.unify

    def counting(d, d2, at=None):
        if at is not None:
            calls[d, at, d2] += 1
        return unify_at(d, d2, at)

    monkeypatch.setattr(grammar_module.fsmod, "unify", counting)
    g = _c11_grammar(registry, lexicon, model)
    assert undergen(g, lexicon, C11_HELD_OUT, limits=ParserLimits(1, 3000)) > 0
    assert len(calls) > 100
    assert max(calls.values()) == 1


def test_rules_the_chart_builds_share_the_grammars_categories(demo):
    registry, _, lexicon, _, model = demo
    g = _c11_grammar(registry, lexicon, model)
    assert g.learnt
    for rule in g.learnt:
        cats = [(LHS, rule.lhs)] + [(slot(i), rule.rhs(i)) for i in range(1, rule.arity + 1)]
        for feat, cat in cats:
            assert cat is cat_at(rule.instances, feat)


def _rejections_and_learnt_ids(g, lexicon, model, sentences):
    flags = SessionFlags(learning=True, hfc=True, unary_super=True)
    rejected = collections.Counter()
    for sentence in sentences:
        res = parse(
            sentence.split(), g, lexicon, model, flags=flags, limits=ParserLimits(1, 3000)
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
    claws_registry, _, claws_lexicon, _, _ = load_bundle("claws")
    claws_sentences = ["AT NN1 VVZ AT NN1", "AT JJ NN1", "AT AT NN1", "II AT NN1"]
    assert _rejections_and_learnt_ids(
        Grammar(claws_registry), claws_lexicon, None, claws_sentences
    ) == (
        {"minor": 6, "no-head-candidate": 1},
        [
            "*binary6", "*unary3", "*binary34", "*binary63", "*binary73", "*binary90",
            "*unary100", "*binary110",
        ],
    )


def test_edge_categories_equal_a_fresh_cat_at(demo):
    registry, _, lexicon, _, model = demo
    g = Grammar(registry)
    g.load_rules(data_path("demo.grammar"))
    learning = SessionFlags(learning=True, hfc=True)
    runs = [(s, learning, ParserLimits()) for s in C11_TRAIN]
    runs += [(s, None, ParserLimits(max_edges=3000)) for s in DEMO_SENTENCES]
    runs += [(s, None, ParserLimits(1, 3000)) for s in C11_HELD_OUT]
    fresh = {}  # computed afresh once per distinct argument pair

    def check(got, instances, feat):
        # the memo's own entry, and equal to one computed afresh
        assert got is cat_at(instances, feat)
        if (instances, feat) not in fresh:
            fresh[instances, feat] = cat_at.__wrapped__(instances, feat)
            assert fresh[instances, feat] is not got
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
        for rule in g.rules:
            format_rule(rule, registry)
        values = sum(node.sub is not None for node in fs_module._NODES.values())
        memos = tuple(f.cache_info().currsize for f in CACHED + INTERNERS)
        sizes.append((len(fs_module._NODES), values) + memos)
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

    def add_learnt(self, rule, support=None):
        inside.append(rule)
        try:
            cover = plain_add(self, rule, support)
        finally:
            inside.pop()
        if cover is not rule:
            refused.append((rule, cover.id))
        return cover

    monkeypatch.setattr(grammar_module, "rule_subsumes", counting_subsumes)
    monkeypatch.setattr(Grammar, "add_learnt", add_learnt)
    _learn_c11(g, lexicon, model)
    assert refused and g.learnt
    for rule, alias in refused:
        assert plain_subsumes(g.rule(alias), rule)
    # every subsumption test belongs to some add_learnt's scan
    assert calls["all"] == calls["in_add_learnt"] > 0


CLAWS_SENTENCES = ["AT NN1 VVZ AT NN1", "AT JJ NN1", "AT AT NN1", "II AT NN1"]


def test_subsumer_scan_skips_only_rules_that_cannot_cover(demo, monkeypatch):
    registry, _, lexicon, _, model = demo
    plain_subsumes = grammar_module.rule_subsumes
    plain_scan = Grammar.subsumer_of
    counts = {"tested": 0, "scanned": 0}

    def counting_subsumes(r, s):
        counts["tested"] += 1
        return plain_subsumes(r, s)

    def checked_scan(self, rule):
        got = plain_scan(self, rule)
        covering = [r for r in self.rules if plain_subsumes(r, rule)]
        assert got is (covering[0] if covering else None)
        counts["scanned"] += len(self.rules)
        return got

    monkeypatch.setattr(grammar_module, "rule_subsumes", counting_subsumes)
    monkeypatch.setattr(Grammar, "subsumer_of", checked_scan)
    g = _c11_grammar(registry, lexicon, model)
    claws_registry, _, claws_lexicon, _, _ = load_bundle("claws")
    _rejections_and_learnt_ids(Grammar(claws_registry), claws_lexicon, None, CLAWS_SENTENCES)
    assert g.learnt
    # the prefilter spared most of the full tests
    assert 0 < counts["tested"] < counts["scanned"] / 2


# -- the critic memo -----------------------------------------------------------------


def _criticised(g, lexicon, model, sentences, flags, limits=None):
    """(bad_reason, built rule id, instances) of every edge, and how many
    edges were criticised."""
    out = []
    criticised = 0
    for sentence in sentences:
        res = parse(sentence.split(), g, lexicon, model, flags=flags, limits=limits)
        for e in res.chart.edges:
            built = e.built_rule
            out.append((e.bad_reason, built and built.id, e.instances))
            criticised += e.bad_reason is not None or built is not None
    return out, criticised


def test_critic_memo_keeps_learning_unchanged(demo, monkeypatch):
    registry, _, lexicon, _, model = demo
    claws_registry, _, claws_lexicon, _, _ = load_bundle("claws")
    demo_grammars = [Grammar(registry), Grammar(registry)]
    for g in demo_grammars:
        g.load_rules(data_path("demo.grammar"))
    runs = [
        (demo_grammars, lexicon, model, C11_TRAIN, SessionFlags(learning=True, hfc=True), None),
        (
            [Grammar(claws_registry), Grammar(claws_registry)],
            claws_lexicon,
            None,
            CLAWS_SENTENCES,
            SessionFlags(learning=True, hfc=True, unary_super=True),
            ParserLimits(1, 3000),
        ),
    ]
    for (memoised, unmemoised), lex, mod, sentences, flags, limits in runs:
        chart_module._verdict.cache_clear()  # cold, whatever ran before
        got, criticised = _criticised(memoised, lex, mod, sentences, flags, limits)
        verdicts = chart_module._verdict.cache_info().currsize
        with monkeypatch.context() as m:
            _uncache(m)
            want, _ = _criticised(unmemoised, lex, mod, sentences, flags, limits)
        assert got == want
        assert [(r.id, r.instances) for r in memoised.learnt] == [
            (r.id, r.instances) for r in unmemoised.learnt
        ]
        assert memoised.learnt and 0 < verdicts < criticised  # some hits


def _signature(chart, edge):
    """An edge by its span and its children's spans and rules, which stay
    put when the chart gains other edges."""
    kids = tuple(
        (c.start, c.end, c.rule_id, c.token) for c in (chart.edges[cid] for cid in edge.children)
    )
    return edge.start, edge.end, edge.rule_id, kids


@pytest.mark.parametrize("how", ["add_original", "load_rules"])
def test_an_added_original_rule_makes_a_criticised_rhs_redundant(demo, tmp_path, how):
    registry, grammar, lexicon, _, model = demo
    words = "Sam chases the happy cat".split()
    first = parse(words, grammar, lexicon, model, flags=full_flags())
    (learnt,) = first.learnt
    (builder,) = [e for e in first.chart.edges if e.built_rule and e.built_rule.id == learnt.id]
    # an original rule over the learnt RHS whose mother no rule takes:
    # phase one still fails, and the same super edge is criticised again
    rhs = learnt.rhs_cats
    cover = make_rule("COVER", rhs[0], rhs)
    if how == "add_original":
        grammar.add_original(cover)
    else:
        path = tmp_path / "cover.rules"
        path.write_text(format_rule(cover, registry) + "\n")
        grammar.load_rules(path)
    again = parse(words, grammar, lexicon, model, flags=full_flags())
    (same,) = [
        e for e in again.chart.edges
        if _signature(again.chart, e) == _signature(first.chart, builder)
    ]
    assert same.bad_reason == "redundant" and same.built_rule is None


def test_critic_verdicts_follow_the_flags_and_the_model(demo):
    registry, _, lexicon, _, model = demo
    sentences = C11_TRAIN[:5]
    limits = ParserLimits(1, 3000)
    settings = [
        (model, {}),
        (model, {"lp": False}),
        (model, {"types": False}),
        (model, {"hfc": False}),
        (None, {}),
        (load_model(data_path("demo.model"), registry), {"lp": False}),
        (model, {}),
    ]
    session = Grammar(registry)
    session.load_rules(data_path("demo.grammar"))
    seen = set()
    for mod, changed in settings:
        flags = full_flags(**changed)
        fresh = Grammar(registry)
        fresh.load_rules(data_path("demo.grammar"))
        got, _ = _criticised(session, lexicon, mod, sentences, flags, limits)
        want, _ = _criticised(fresh, lexicon, mod, sentences, flags, limits)
        # learnt ids run on in the session; reasons and instances do not
        assert [(r, i) for r, _, i in got] == [(r, i) for r, _, i in want]
        seen.add(tuple((r, i) for r, _, i in want))
    # five distinct verdict lists: the reloaded model with LP off reads like
    # the first with LP off, and the last setting like the first
    assert len(seen) == 5


# -- proposals ---------------------------------------------------------------------


class _OneKindEdge:
    """An edge as the chart made every edge before active edges got a class
    of their own: one class for the three kinds, all fields set per edge."""

    __slots__ = (
        "id", "start", "end", "rule_id", "arity", "nfound", "instances", "children", "token",
        "is_inactive", "seen", "bad", "bad_reason", "score", "built_rule", "_cat",
    )

    def __init__(self, eid, start, end, rule_id, arity, nfound, instances, children, token=None):
        self.id = eid
        self.start = start
        self.end = end
        self.rule_id = rule_id
        self.arity = arity
        self.nfound = nfound
        self.instances = instances
        self.children = children
        self.token = token
        self.is_inactive = token is not None or nfound == arity
        self.seen = 0
        self.bad = False
        self.bad_reason = None
        self.score = None
        self.built_rule = None
        self._cat = None

    @property
    def is_lexical(self):
        return self.token is not None

    def cat(self):
        if self._cat is None:
            if self.is_lexical:
                self._cat = Category(self.instances)
            else:
                self._cat = cat_at(self.instances, LHS)
        return self._cat

    def slot_cat(self, i):
        return cat_at(self.instances, slot(i))


class _OneKindParser(ChartParser):
    """Makes every edge as the chart did before the two edge kinds: through
    one `_add_edge`, whatever the kind, and `propose` calls it per rule.
    A first-parse parse drops covered inactive edges, by `_covered`."""

    def propose(self, inactive):
        for rule, insts in chart_module.proposals(self._rules, inactive.cat().disjuncts):
            self._add_edge(
                rule.id, inactive.start, inactive.end, rule.arity, 1, insts, (inactive.id,)
            )

    def _add_active(self, rule_id, start, end, arity, nfound, instances, children):
        self._add_edge(rule_id, start, end, arity, nfound, instances, children)

    def _add_inactive(self, rule_id, start, end, arity, instances, children, token=None):
        self._add_edge(rule_id, start, end, arity, arity, instances, children, token)

    def _covered(self, start, end, instances):
        """The first-parse rule, written out: with learning and training
        off and n = 1, a non-lexical inactive edge is dropped when another
        of the chart over its span has a category that subsumes its own.  With learning off no edge is bad, so the index
        list holds every inactive edge."""
        flags = self.flags
        if flags.learning or flags.training or self.limits.max_parses != 1:
            return False
        cat = cat_at(instances, LHS)
        return any(
            not e.is_lexical and e.end == end and subsumes_cat(e.cat(), cat)
            for e in self.chart.inactives_by_start[start]
        )

    def _add_edge(self, rule_id, start, end, arity, nfound, instances, children, token=None):
        if token is None and nfound == arity and self._covered(start, end, instances):
            return
        chart = self.chart
        edges = chart.edges
        eid = len(edges)
        edge = _OneKindEdge(eid, start, end, rule_id, arity, nfound, instances, children, token)
        edges.append(edge)
        if edge.is_inactive and rule_id in self._super_ids:
            self.criticise(edge)
        if not edge.bad:
            if edge.is_inactive:
                if token is None and self.flags.data and self.store is not None:
                    edge.score = self._edge_score(edge)
                chart.inactives_by_start[start].append(edge)
            else:
                chart.actives_by_end[end].append(edge)
            self.agenda.append(edge)
        if self.trace:
            self.trace(edge)
        if edge.is_inactive and not edge.bad:
            self._note_parse(edge)
        max_edges = self.limits.max_edges
        if max_edges is not None and eid + 1 >= max_edges:
            raise chart_module._Bounded("edges")


class _PerRuleParser(_OneKindParser):
    """Proposes as the chart did before `proposals`: one narrow()
    per rule, an edge for each rule that accepts the category."""

    def propose(self, inactive):
        for rule in self._rules:
            found = narrow(rule.instances, slot(1), inactive.cat().disjuncts)
            if found:
                self._add_edge(
                    rule.id, inactive.start, inactive.end, rule.arity, 1, found, (inactive.id,)
                )


def _parse_trace(res):
    return (
        [
            (e.rule_id, e.start, e.end, e.children, e.instances, e.bad_reason,
             e.built_rule.id if e.built_rule is not None else None,
             e.is_inactive, e.nfound, e.arity, e.bad, e.score)
            for e in res.chart.edges
        ],
        res.resource_bounded,
        [t.display() for t in res.trees],
        [(r.id, r.instances) for r in res.learnt],
    )


def test_proposals_match_the_per_rule_reference(demo):
    registry, _, lexicon, _, model = demo
    grammars = []
    for _ in range(2):
        g = Grammar(registry)
        g.load_rules(data_path("demo.grammar"))
        grammars.append(g)
    learning = SessionFlags(learning=True, hfc=True)
    runs = [(s, learning, ParserLimits()) for s in C11_TRAIN]
    runs += [(s, None, ParserLimits(max_edges=3000)) for s in DEMO_SENTENCES]
    runs += [(s, None, ParserLimits(1, 3000)) for s in C11_HELD_OUT]
    # first-parse parses keep fewer edges: two held-out lines need over 500
    runs += [(s, None, ParserLimits(1, 500)) for s in C11_HELD_OUT]
    bounded = seeded = 0
    for sentence, flags, limits in runs:
        got, want = (
            cls(g, lexicon, model, flags=flags, limits=limits).parse(sentence.split())
            for cls, g in zip((ChartParser, _PerRuleParser), grammars)
        )
        assert _parse_trace(got) == _parse_trace(want), sentence
        bounded += got.resource_bounded
        seeded += any(e.rule_id.startswith("*super-") for e in got.chart.edges if e.rule_id)
    assert bounded >= 1 and seeded >= 5
    assert [r.id for r in grammars[0].learnt] == [r.id for r in grammars[1].learnt]


def test_proposal_memo_stays_bounded_in_a_learning_session(tmp_path, monkeypatch):
    corpus = tmp_path / "c11.train"
    corpus.write_text("\n".join(C11_TRAIN) + "\n")
    session = Session(out=io.StringIO())
    session.load_bundle("demo")
    tuples = set()  # the rule tuples the chart proposes from: proposals' keys
    cached = chart_module.proposals

    def recording(rules, disjuncts):
        tuples.add(rules)
        return cached(rules, disjuncts)

    monkeypatch.setattr(chart_module, "proposals", recording)
    run_repl(session, ["set learning on", "set hfc on", "limits off off", "learn-corpus %s" % corpus])
    assert session.grammar.learnt
    assert tuples
    assert all(isinstance(r, Rule) for rules in tuples for r in rules)
    assert len(tuples) <= 3
    assert super_rule(2) is super_rule(2)
    assert any(super_rule(2) in rules for rules in tuples)


# -- the agenda loop -------------------------------------------------------------------


class _PairCountingParser(ChartParser):
    """Counts the (active id, inactive id) pairs that reach extend."""

    def extend(self, active, inactive):
        self.tried[active.id, inactive.id] += 1
        super().extend(active, inactive)


class _AllPairsParser(_OneKindParser, _PairCountingParser):
    """Runs the agenda as the chart did before the pair-once rule: a popped
    edge tries every partner indexed so far, from a copy of the index list,
    so a pair whose edges were both created before either was popped is
    tried at both pops.  Its own key set drops the repeats that makes.
    Its edges are made as `_OneKindParser` makes them."""

    def parse(self, tokens):
        self.keys = set()
        return super().parse(tokens)

    def _add_edge(self, rule_id, start, end, arity, nfound, instances, children, token=None):
        key = (rule_id, start, end, children or instances)
        if key not in self.keys:
            self.keys.add(key)
            super()._add_edge(rule_id, start, end, arity, nfound, instances, children, token)

    def _run(self):
        while self.agenda:
            edge = self.agenda.popleft()
            if edge.is_inactive:
                self.propose(edge)
                for active in list(self.chart.actives_by_end[edge.start]):
                    self.extend(active, edge)
            else:
                for inactive in list(self.chart.inactives_by_start[edge.end]):
                    self.extend(edge, inactive)


def test_the_agenda_loop_builds_the_all_pairs_edge_sequence(demo):
    registry, _, lexicon, _, model = demo
    learning = full_flags()
    both_supers = full_flags(unary_super=True)
    grammars = [Grammar(registry) for _ in range(2)]
    for g in grammars:
        g.load_rules(data_path("demo.grammar"))
    c11 = _c11_grammar(registry, lexicon, model)
    # (sentences, flags, limits, one grammar per parser class)
    runs = [
        (DEMO_SENTENCES, learning, ParserLimits(), grammars),
        (C11_TRAIN, both_supers, ParserLimits(max_edges=3000), grammars),
        (C11_HELD_OUT, None, ParserLimits(1, 3000), (c11, c11)),
        ([BOUNDED_EVAL], None, ParserLimits(1, 3000), (c11, c11)),
        # the first parse of BOUNDED_EVAL keeps 751 edges
        ([BOUNDED_EVAL], None, ParserLimits(1, 500), (c11, c11)),
    ]
    twice = bounded = 0
    for sentences, flags, limits, pair in runs:
        for sentence in sentences:
            got, want = (
                cls(g, lexicon, model, flags=flags, limits=limits)
                for cls, g in zip((_PairCountingParser, _AllPairsParser), pair)
            )
            for parser in (got, want):
                parser.tried = collections.Counter()
            res = got.parse(sentence.split())
            assert _parse_trace(res) == _parse_trace(want.parse(sentence.split())), sentence
            assert len({_edge_key(e) for e in res.chart.edges}) == len(res.chart.edges)
            assert set(got.tried) == set(want.tried)
            assert max(got.tried.values(), default=1) == 1
            twice += sum(n > 1 for n in want.tried.values())
            bounded += got.resource_bounded
    assert [r.id for r in grammars[0].learnt] == [r.id for r in grammars[1].learnt]
    assert twice > 100 and bounded >= 3
    assert any(r.id.startswith("*unary") for r in grammars[0].learnt)


# -- first-parse parses ---------------------------------------------------------------

INPUTS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "inputs.py")


def _undergen_corpus():
    # loaded by path: the eval benchmark's undergeneration lines
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.UNDERGEN_CORPUS


def test_a_first_parse_parse_finds_the_first_parse_of_the_full_chart(demo):
    """Learning and training off and n = 1, the parser drops a non-lexical
    inactive edge that an earlier one over its span covers.  It finds the
    tree that a parser making every edge finds first, and the m bound counts
    kept edges only, so BOUNDED_EVAL, bounded at m = 3000 when every edge
    was made, parses."""
    registry, _, lexicon, _, model = demo
    g = _c11_grammar(registry, lexicon, model)
    sentences = C11_HELD_OUT + _undergen_corpus()
    sentences += gen_random(lexicon, 4, 16, 7) + gen_random(lexicon, 6, 8, 11)
    compared = fewer = 0
    for sentence in dict.fromkeys(sentences):
        tokens = sentence.split()
        first = parse(tokens, g, lexicon, model, limits=ParserLimits(1, 3000))
        every = parse(tokens, g, lexicon, model, limits=ParserLimits(None, 5000))
        assert not first.resource_bounded, sentence
        if every.resource_bounded:
            continue
        compared += 1
        fewer += first.edges_created < every.edges_created
        assert [t.display() for t in first.trees] == [t.display() for t in every.trees[:1]], sentence
        assert first.n_parses == min(1, every.n_parses), sentence
    assert compared > 40 and fewer > 20
    res = parse(BOUNDED_EVAL.split(), g, lexicon, model, limits=ParserLimits(1, 3000))
    assert (res.n_parses, res.edges_created, res.resource_bounded) == (1, 751, False)
    assert res.trees[0].display() == BOUNDED_EVAL_TREE


def test_only_a_first_parse_parse_drops_covered_edges(demo):
    """Every parse but a first-parse one makes the edges of the parser that
    makes every edge, here `_OneKindParser`; so does a first-parse one,
    once that parser drops covered edges by its own reading of the rule."""
    registry, _, lexicon, _, model = demo
    c11 = _c11_grammar(registry, lexicon, model)
    grammars = []
    for _ in range(2):
        g = Grammar(registry)
        g.load_rules(data_path("demo.grammar"))
        grammars.append(g)
    learning = SessionFlags(learning=True, hfc=True)
    training = SessionFlags(training=True)
    long_lines = [C11_HELD_OUT[2], C11_HELD_OUT[8], BOUNDED_EVAL]
    runs = [
        (C11_TRAIN, learning, ParserLimits(1, 3000), grammars),
        (long_lines, None, ParserLimits(1, 3000), (c11, c11)),
        (long_lines, None, ParserLimits(2, 3000), (c11, c11)),
        (long_lines, None, ParserLimits(None, 3000), (c11, c11)),
        (long_lines, training, ParserLimits(1, 3000), (c11, c11)),
    ]
    edges = {}
    for sentences, flags, limits, pair in runs:
        for sentence in sentences:
            got, want = (
                cls(g, lexicon, model, flags=flags, limits=limits).parse(sentence.split())
                for cls, g in zip((ChartParser, _OneKindParser), pair)
            )
            assert _parse_trace(got) == _parse_trace(want), (sentence, limits)
            edges[sentence, flags, limits.max_parses] = got.edges_created
    assert [r.id for r in grammars[0].learnt] == [r.id for r in grammars[1].learnt]
    for sentence in long_lines:
        kept = edges[sentence, None, 1]
        assert kept < 1000 < min(edges[sentence, f, n] for f, n in ((None, 2), (None, None), (training, 1)))


def test_training_harvests_the_partial_charts_of_every_edge(tmp_path):
    """With training on, a parse that finds no tree trains on the local
    trees of its partial chart, so it drops no edge: learning off and
    `limits 1 3000`, the saved store is pinned (taken when every parse
    made every edge; two lines hit the bound)."""
    train = tmp_path / "c11.train"
    train.write_text("\n".join(C11_TRAIN) + "\n")
    held = tmp_path / "held-out.txt"
    held.write_text("\n".join(C11_HELD_OUT + [BOUNDED_EVAL]) + "\n")
    triples = tmp_path / "empty.triples"
    triples.write_text("params delta 0.001 omega 0.35\n")
    session = Session(out=io.StringIO())
    session.load_bundle("demo")
    run_repl(session, [
        "set learning on", "set hfc on", "limits off off", "learn-corpus %s" % train,
        "set learning off", "load-triples %s" % triples, "limits 1 3000", "set training on",
        "learn-corpus %s" % held,
    ])
    assert session.out.getvalue().count("resource-bounded") == 2
    saved = tmp_path / "out.triples"
    session.store.save(saved, session.registry)
    assert hashlib.sha256(saved.read_bytes()).hexdigest() == (
        "5de7999cf3ef03e41bbb2fb9cd025845f9b804dabd9ffc10ce51d00ea9732e12"
    )


def test_the_parser_calls_the_wrapped_propose_and_extend(demo, monkeypatch):
    """bench/trace.py counts, and bench/run.py's clock ticks on, these two
    methods, rebound on the class.  They get only what `_run` and
    seed_super hand them, and keep no guard of their own: a non-bad
    inactive edge to propose from, and an `Active` with a non-bad inactive
    edge that starts where it ends."""
    registry, _, lexicon, _, model = demo
    proposed, tried = collections.Counter(), collections.Counter()
    propose, extend = vars(ChartParser)["propose"], vars(ChartParser)["extend"]

    def counting_propose(self, inactive):
        assert inactive.is_inactive and not inactive.bad, inactive
        proposed[inactive.id, self._rules is self.supers] += 1
        return propose(self, inactive)

    def counting_extend(self, active, inactive):
        assert type(active) is chart_module.Active, active
        assert inactive.is_inactive and not inactive.bad, inactive
        assert active.end == inactive.start, (active, inactive)
        tried[active.id, inactive.id] += 1
        return extend(self, active, inactive)

    monkeypatch.setattr(ChartParser, "propose", counting_propose)
    monkeypatch.setattr(ChartParser, "extend", counting_extend)
    binary, both = full_flags(), full_flags(unary_super=True)
    runs = [
        ("Sam chases the happy cat", binary, ParserLimits()),
        ("the happy cat chases Sam", both, ParserLimits()),
        # stopped by the edge bound, then by the parse bound
        ("Sam chases the cat down the road", both, ParserLimits(max_edges=300)),
        ("the happy cat down the road chases Sam", binary, ParserLimits(1, 3000)),
    ]
    bounded = bad = 0
    for sentence, flags, limits in runs:
        grammar = Grammar(registry)
        grammar.load_rules(data_path("demo.grammar"))
        proposed.clear()
        tried.clear()
        res = parse(sentence.split(), grammar, lexicon, model, flags=flags, limits=limits)
        assert res.n_parses >= 1 or res.resource_bounded, sentence
        assert any(seeding for _, seeding in proposed), sentence
        bounded += res.resource_bounded
        bad += any(e.bad for e in res.chart.edges)
        if limits.max_edges is not None:
            continue  # a bound may leave edges on the agenda
        edges = [e for e in res.chart.edges if not e.bad]
        # unbounded, every edge left the agenda: bad edges never reach it
        popped = {(e.id, False): 1 for e in edges if e.is_inactive}
        assert {k: n for k, n in proposed.items() if not k[1]} == popped
        pairs = {
            (a.id, i.id): 1
            for a in edges if not a.is_inactive
            for i in edges if i.is_inactive and i.start == a.end
        }
        assert tried == pairs
    assert bounded == 1 and bad == len(runs)


# sha256 of what save-learnt writes after learning with no bound from each
# corpus; the held-out lines make the retention scan test 4,224 rule pairs
@pytest.mark.parametrize(
    "sentences, digest",
    [
        (C11_TRAIN + DEMO_SENTENCES, "b08d80a573761f6a23bced9656b211cf7978b084c8d8b229e3be0c299df32f80"),
        (
            C11_TRAIN + DEMO_SENTENCES + C11_HELD_OUT,
            "44f264d1abcb1695c0635ebb0efd101621efc8c95eff9e2fc5c3ba7ce66954c6",
        ),
    ],
    ids=["train-demo", "train-demo-held-out"],
)
def test_unbounded_learning_saves_pinned_bytes(tmp_path, sentences, digest):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(sentences) + "\n")
    for run in range(2):  # the second run finds every memo warm
        saved = tmp_path / ("learnt%d.rules" % run)
        session = Session(out=io.StringIO())
        session.load_bundle("demo")
        run_repl(session, [
            "set learning on", "set hfc on", "limits off off",
            "learn-corpus %s" % corpus, "save-learnt %s" % saved,
        ])
        assert "error:" not in session.out.getvalue()
        assert hashlib.sha256(saved.read_bytes()).hexdigest() == digest


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

    def _rule_or_reason(self, arity, rhs):
        got = super()._rule_or_reason(arity, rhs)
        self.verdicts.append((got == "redundant", _covered_reference(self.grammar, arity, rhs)))
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
    narrowed = narrow(edge.instances, LHS, forced.disjuncts)
    if not narrowed:
        return
    node_cat = cat_at(narrowed, LHS)
    rule_id = edge.built_rule.id if edge.built_rule is not None else edge.rule_id
    child_lists = [
        list(_reference_trees(
            parser, parser.chart.edges[cid], cat_at(narrowed, slot(i)), calls
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
            for edge in parser.spanning
            for tree in _reference_trees(parser, edge, edge.cat(), {})
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
        for edge in parser.spanning:
            list(_reference_trees(parser, edge, edge.cat(), unshared))
        assert unshared.keys() == calls.keys()
        shared += sum(unshared.values()) > len(unshared)
    assert shared >= 3


# -- the two edge kinds ---------------------------------------------------------------

# what Record (bench/workloads.py), harvest_local_trees and the CLI trace
# read of an edge, whatever its kind
EDGE_READS = (
    "id", "start", "end", "rule_id", "arity", "nfound", "instances", "children", "token",
    "is_inactive", "is_lexical", "bad", "bad_reason", "built_rule", "score",
    "seen", "cat", "slot_cat",
)


def test_both_edge_kinds_answer_what_their_readers_read(demo):
    registry, grammar, lexicon, _, model = demo
    res = parse("the happy cat chases Sam".split(), grammar, lexicon, model, flags=full_flags())
    kinds = {}
    for e in res.chart.edges:
        kinds.setdefault((type(e), e.is_lexical, e.is_inactive), e)
    assert {(t.__name__, lex, inactive) for t, lex, inactive in kinds} == {
        ("Edge", True, True), ("Edge", False, True), ("Active", False, False),
    }
    for edge in kinds.values():
        assert all(hasattr(edge, name) for name in EDGE_READS), edge
    active = kinds[chart_module.Active, False, False]
    assert not hasattr(active, "__dict__")
    assert not hasattr(kinds[chart_module.Edge, False, True], "__dict__")
    assert (active.is_inactive, active.token, active.bad, active.bad_reason, active.built_rule,
            active.score) == (False, None, False, None, None, None)
    assert active.nfound < active.arity
    assert repr(active) == "Edge(%d active %d..%d %s)" % (
        active.id, active.start, active.end, active.rule_id)
    assert all(e.nfound == e.arity for e in res.chart.edges if e.is_inactive)


def test_the_trace_of_a_learning_session_is_pinned(capsys):
    session = Session(out=io.StringIO(), trace=True)
    session.load_bundle("demo")
    run_repl(session, [
        "set learning on", "set hfc on", "the happy cat chases Sam",
        "set unary on", "limits off 60", "Sam chases the cat down the road",
    ])
    err = capsys.readouterr().err
    assert "resource-bounded" in session.out.getvalue()
    assert len(err.splitlines()) == 95
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "a53ae4ddb65e777ba144d1eea2738412b11568ccf6217236303f06384fc5a173"
    )


# -- reuse and retention --------------------------------------------------------------


def test_a_reused_parser_parses_as_a_fresh_one(demo):
    registry, _, lexicon, _, model = demo
    learning = SessionFlags(learning=True, hfc=True)
    runs = [
        # the first parse leaves a spanning edge behind, which once kept
        # the second from seeding super rules
        (ParserLimits(), "Sam chases the cat", "the happy cat chases Sam", ["*binary1"]),
        # the first parse is bounded, and leaves edges on the agenda
        (ParserLimits(max_edges=20), "Sam chases the happy cat", "Sam chases the cat", []),
        # phase one ends at 8 edges, so the first parse stops inside
        # seed_super, and leaves the super rules as the rules to propose from
        (ParserLimits(max_edges=10), "Sam chases the happy cat", "Sam chases Sam", []),
    ]
    for limits, first, second, learnt in runs:
        grammars = []
        for _ in range(2):
            g = Grammar(registry)
            g.load_rules(data_path("demo.grammar"))
            grammars.append(g)
        reused = ChartParser(grammars[0], lexicon, model, flags=learning, limits=limits)
        before = reused.parse(first.split())
        ChartParser(grammars[1], lexicon, model, flags=learning, limits=limits).parse(first.split())
        got = reused.parse(second.split())
        want = ChartParser(grammars[1], lexicon, model, flags=learning, limits=limits).parse(second.split())
        assert before.n_parses == 1 or before.resource_bounded
        assert (want.n_parses, [r.id for r in want.learnt]) == (1, learnt)
        assert (got.n_parses, got.edges_created, got.cap_hits) == (
            want.n_parses, want.edges_created, want.cap_hits)
        assert _parse_trace(got) == _parse_trace(want), second
        assert [r.id for r in grammars[0].learnt] == [r.id for r in grammars[1].learnt]


def test_unary_learning_offers_each_distinct_rule_once(tmp_path, monkeypatch):
    """"the happy cat chases Sam", unary super rules on, no bound: the saved
    rules, the learnt ids, the support records and the trees are pinned
    (taken before retention offered each distinct rule once)."""
    offers = []
    add_learnt = Grammar.add_learnt

    def counting(self, rule, support=None):
        offers.append((rule.arity, rule.instances))
        return add_learnt(self, rule, support)

    monkeypatch.setattr(Grammar, "add_learnt", counting)
    saved = tmp_path / "learnt.rules"
    session = Session(out=io.StringIO())
    session.load_bundle("demo")
    run_repl(session, [
        "set learning on", "set hfc on", "set unary on", "limits off off",
        "the happy cat chases Sam", "save-learnt %s" % saved,
    ])
    assert "error:" not in session.out.getvalue()
    grammar, res = session.grammar, session.last_result

    def sha(text):
        return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()

    assert (len(res.trees), len(grammar.learnt)) == (671, 78)
    assert sha(saved.read_bytes()) == (
        "ada40f183a0ede8a1fc60587a99209edbd38f5a2ba22b770c7cb6d75d1fc75d2"
    )
    assert sha("\n".join(r.id for r in grammar.learnt)) == (
        "c179cc22b3bce485bb556072a78b9661c910586745368138e9bf2b3b5cdd4911"
    )
    assert sha("\n".join("%s %r" % kv for kv in grammar.support.items())) == (
        "ade1f5654185900cecff25661e6d801ed475d108b9054b83c86fbdadd54363db"
    )
    assert sha("\n".join(t.display() for t in res.trees)) == (
        "163f7c78a763248e3524a35bcebf477176a66e5c9650610ddcfa2e33d537868e"
    )
    # one offer per distinct (arity, instances) of the rules the trees name
    built = {e.built_rule.id: e.built_rule for e in res.chart.edges if e.built_rule is not None}
    named = {node.rule_id for t in res.trees for node in t.walk()}
    distinct = {(built[rid].arity, built[rid].instances) for rid in named if rid in built}
    assert len(offers) == len(set(offers)) == len(distinct) < len(named & set(built))


def test_a_ternary_original_rule_extends_through_active_edges(demo, tmp_path):
    """An original rule of arity 3 keeps an `Active` after its second
    daughter, and builds the edges the one-kind chart built."""
    registry, _, lexicon, _, model = demo
    ternary = tmp_path / "ternary.grammar"
    ternary.write_text(
        "rule S3 : [N -, V +, BAR 2, DET -, VFORM FIN] -> [N +, V -, BAR 2, DET -, CASE NOM]"
        " [N -, V +, BAR 0, DET -, SUBCAT TRANS, VFORM FIN] [N +, V -, BAR 2, DET -, CASE ACC]\n"
    )
    results = []
    for cls in (ChartParser, _OneKindParser):
        g = Grammar(registry)
        g.load_rules(data_path("demo.grammar"))
        g.load_rules(ternary)
        res = cls(g, lexicon, model).parse("Sam chases the cat".split())
        results.append(res)
    got, want = results
    assert _parse_trace(got) == _parse_trace(want)
    assert got.n_parses == 2
    assert any(t.display().startswith('("S3"') for t in got.trees)
    two_found = [e for e in got.chart.edges if e.rule_id == "S3" and e.nfound == 2]
    assert two_found and all(type(e) is chart_module.Active for e in two_found)
