import math
import random

import pytest

from gramgrow.chart import SessionFlags, parse
from gramgrow.evaluate import (
    benchmark_pairs,
    flatten_benchmark,
    gen_random,
    match_parse,
    normalize_tree,
    overgen,
    parse_benchmark,
    plausibility,
    t_test,
    undergen,
)
from gramgrow.fs import MalformedSyntax
from gramgrow.grammar import Grammar, parse_rule_line
from gramgrow.model import load_model
from gramgrow.resources import data_path, load_demo


@pytest.fixture(scope="module")
def demo():
    registry, _, lexicon, labels = load_demo()
    grammar = Grammar(registry)
    grammar.load_rules(data_path("demo.grammar"))
    model = load_model(data_path("demo.model"), registry)
    return registry, grammar, lexicon, labels, model


# -- undergen -------------------------------------------------------------------


def test_undergen_zero_rule_grammar(demo):
    registry, _, lexicon, _, _ = demo
    empty = Grammar(registry)
    assert undergen(empty, lexicon, ["Sam chases the cat"]) == 0.0


def test_undergen_demo_sentence(demo):
    registry, grammar, lexicon, _, _ = demo
    assert undergen(grammar, lexicon, ["Sam chases the cat"]) == 1.0
    assert undergen(grammar, lexicon, ["Sam chases the happy cat"]) == 0.0


def test_undergen_unknown_tag_counts_unparsed(demo):
    registry, grammar, lexicon, _, _ = demo
    from gramgrow.evaluate import EvalReport

    report = EvalReport()
    got = undergen(grammar, lexicon, ["Sam chases the zebra", "Sam chases the cat"], report=report)
    assert got == 0.5
    assert report.warnings


# -- gen_random ------------------------------------------------------------------


def test_gen_random_shape(demo):
    registry, _, lexicon, _, _ = demo
    got = gen_random(lexicon, 6, 100, seed=7)
    assert len(got) == 100
    assert all(len(s.split()) == 6 for s in got)


def test_gen_random_deterministic(demo):
    registry, _, lexicon, _, _ = demo
    a = gen_random(lexicon, 6, 50, seed=123)
    b = gen_random(lexicon, 6, 50, seed=123)
    assert a == b
    c = gen_random(lexicon, 6, 50, seed=124)
    assert a != c


def test_gen_random_empty(demo):
    registry, _, lexicon, _, _ = demo
    assert gen_random(lexicon, 6, 0, seed=1) == []


# -- overgen ---------------------------------------------------------------------


def test_overgen_zero_rule_grammar(demo):
    registry, _, lexicon, _, _ = demo
    empty = Grammar(registry)
    strings = gen_random(lexicon, 6, 100, seed=11)
    assert overgen(empty, lexicon, strings) == 0.0


def test_overgen_monotone_under_rule_addition(demo):
    registry, grammar, lexicon, _, _ = demo
    strings = gen_random(lexicon, 4, 40, seed=13)
    base = overgen(grammar, lexicon, strings)
    extended = Grammar(registry)
    extended.load_rules(data_path("demo.grammar"))
    extended.add_learnt(
        parse_rule_line(
            "rule *binary1 : [N +, V -, BAR 2, DET -] -> [DET +] [N +, V -, BAR 2, DET -]",
            registry,
            origin="learnt",
        )
    )
    assert overgen(extended, lexicon, strings) >= base


# -- normalize / match -------------------------------------------------------------


def test_normalize_tree_preorder(demo):
    registry, grammar, lexicon, labels, model = demo
    res = parse("Sam chases the cat".split(), grammar, lexicon)
    seq = normalize_tree(labels, res.trees[0])
    assert seq[0] == "S" and seq[1] == "NP" and seq[2] == "Sam"
    assert seq == ["S", "NP", "Sam", "VP", "V0", "chases", "NP", "Det", "the", "N1", "cat"]


def test_normalize_single_leaf():
    from gramgrow.chart import ParseTree
    from gramgrow.fs import Category, FS

    _, _, _, labels = load_demo()
    leaf = ParseTree(Category((FS.empty(),)), token="cat")
    assert normalize_tree(labels, leaf) == ["cat"]


def test_match_parse_worked_example():
    assert match_parse(list("abcd"), list("cabc")) == 0.75


def test_match_parse_identity_and_disjoint():
    assert match_parse(list("abc"), list("abc")) == 1.0
    assert match_parse(list("xy"), list("abc")) == 0.0


def test_match_parse_perturbation_bound():
    rng = random.Random(61)
    alphabet = list("abcde")
    for _ in range(200):
        n = rng.randint(1, 10)
        beta = [rng.choice(alphabet) for _ in range(n)]
        tau = list(beta)
        base = match_parse(tau, beta)
        damaged = list(tau)
        damaged[rng.randrange(n)] = "Z"  # absent from beta
        assert match_parse(damaged, beta) <= base


def test_match_parse_not_consuming_benchmark():
    # the benchmark keeps all occurrences: both 'ab' runs can match the one in beta
    assert match_parse(list("abab"), list("abx")) == (2 + 2) / 2 / 3


# -- plausibility -------------------------------------------------------------------


def test_plausibility_own_parse_is_perfect(demo):
    registry, grammar, lexicon, labels, model = demo
    res = parse("Sam chases the cat".split(), grammar, lexicon)
    bench_text = "(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 cat))))"
    pairs = [("Sam chases the cat", parse_benchmark(bench_text))]
    scores, mean, sd = plausibility(grammar, lexicon, pairs, 10, labels)
    assert scores == [1.0]


def test_plausibility_unparseable_scores_zero(demo):
    registry, grammar, lexicon, labels, _ = demo
    pairs = [("Sam chases the happy cat", parse_benchmark("(S (NP Sam))"))]
    scores, mean, sd = plausibility(grammar, lexicon, pairs, 10, labels)
    assert scores == [0.0]


def test_plausibility_monotone_in_k(demo):
    registry, grammar, lexicon, labels, model = demo
    g = Grammar(registry)
    g.load_rules(data_path("demo.grammar"))
    learn = parse(
        "Sam chases the cat down the road".split(),
        g,
        lexicon,
        model,
        flags=SessionFlags(learning=True),
    )
    bench = parse_benchmark("(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 cat))))")
    pairs = [("Sam chases the cat down the road", bench)]
    s1, _, _ = plausibility(g, lexicon, pairs, 1, labels)
    s10, _, _ = plausibility(g, lexicon, pairs, 10, labels)
    assert s1[0] <= s10[0]


# -- t test -----------------------------------------------------------------------


def test_t_test_equal_samples():
    assert t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 0.0


def test_t_test_shift_positive():
    a = [0.2, 0.3, 0.4, 0.5]
    b = [0.1, 0.2, 0.3, 0.4]
    assert t_test(a, b) > 0
    assert t_test(b, a) < 0


def test_t_test_degenerate_variance():
    with pytest.raises(ValueError):
        t_test([0.1, 0.1], [0.2, 0.2])
    with pytest.raises(ValueError):
        t_test([0.1], [0.2, 0.3])


def test_t_test_on_reported_summary_scale():
    # two synthetic samples with the reported means/sds land near the value
    # the Welch formula actually gives (~0.63), not the figure printed in the
    # source tables; this documents the discrepancy
    rng = random.Random(3)

    def sample(mean, sd, n):
        xs = [rng.gauss(mean, sd) for _ in range(n)]
        m = sum(xs) / n
        v = math.sqrt(sum((x - m) ** 2 for x in xs) / (n - 1))
        return [mean + (x - m) * sd / v for x in xs]

    a = sample(0.098, 0.029, 15)
    b = sample(0.091, 0.032, 15)
    got = t_test(a, b)
    want = (0.098 - 0.091) / math.sqrt(0.029**2 / 15 + 0.032**2 / 15)
    assert abs(got - want) < 1e-9
    assert abs(want - 0.6277) < 0.01


# -- benchmark parsing ----------------------------------------------------------------


def test_parse_benchmark_paren():
    t = parse_benchmark("(S (NP Sam) (VP died))")
    assert flatten_benchmark(t) == ["S", "NP", "Sam", "VP", "died"]


def test_parse_benchmark_sec():
    t = parse_benchmark("[N It_PPH1 N]")
    assert flatten_benchmark(t) == ["N", "PPH1"]


def test_parse_benchmark_sec_nested():
    text = "[V 's_VBZ [N a_AT1 reminder_NN1 N]V]"
    t = parse_benchmark(text)
    assert flatten_benchmark(t) == ["V", "VBZ", "N", "AT1", "NN1"]


@pytest.mark.parametrize(
    "text", ["(S (NP Sam)", "()", "(S x) y", "[N Sam_NP1", "", "(", ")", "[]", "[N x N] ]", "(S x))"]
)
def test_parse_benchmark_malformed(text):
    with pytest.raises(MalformedSyntax):
        parse_benchmark(text)


def test_benchmark_pairs():
    pairs = benchmark_pairs(["Sam died", "(S (NP Sam) (VP died))"])
    assert pairs == [("Sam died", ("S", [("NP", ["Sam"]), ("VP", ["died"])]))]
    with pytest.raises(MalformedSyntax):
        benchmark_pairs(["Sam died"])
