import collections
import itertools
import math
import random

import pytest

from gramgrow import scoring
from gramgrow.chart import ParseTree
from gramgrow.fs import Category, FS, FeatureRegistry, MalformedSyntax, parse_fs, unify
from gramgrow.scoring import (
    TripleStore,
    decompose,
    geo_mean,
    judge,
    score_tree,
    train,
)

ATOM_REG = FeatureRegistry.from_text("feature CAT S NP VP V DET N PP NAME")


def afs(label):
    return parse_fs("[CAT %s]" % label, ATOM_REG).disjuncts[0]


def acat(label):
    return Category((afs(label),))


@pytest.fixture()
def six_triple_store():
    """The worked treebank: two toy parses collapsed into six triples."""
    store = TripleStore(delta=0.001, omega=0.35)
    for m, d, f in [
        ("S", "NP", 2),
        ("S", "VP", 2),
        ("VP", "V", 2),
        ("VP", "NP", 1),
        ("NP", "DET", 1),
        ("NP", "N", 1),
    ]:
        store.add(afs(m), afs(d), f)
    return store


def leaf(label, token="w"):
    return ParseTree(acat(label), token=token)


def node(label, children):
    return ParseTree(acat(label), rule_id=label, children=children)


# -- decompose ----------------------------------------------------------------


def test_decompose_simple_tree():
    t = node("S", [node("NP", [leaf("NAME", "Sam")]), node("VP", [leaf("V", "laughs")])])
    got = [(m.get("CAT"), d.get("CAT")) for m, d in decompose(t)]
    assert got == [("S", "NP"), ("S", "VP"), ("NP", "NAME"), ("VP", "V")]


def test_decompose_worked_treebank(six_triple_store):
    t1 = node("S", [leaf("NP", "Sam"), node("VP", [leaf("V", "laughs")])])
    t2 = node(
        "S",
        [
            leaf("NP", "Sam"),
            node("VP", [leaf("V", "chases"), node("NP", [leaf("DET", "the"), leaf("N", "cat")])]),
        ],
    )
    store = TripleStore(delta=0.001, omega=0.35)
    train(store, [t1, t2])
    freqs = {(t.mother.get("CAT"), t.daughter.get("CAT")): t.freq for t in store.triples}
    assert freqs == {
        ("S", "NP"): 2,
        ("S", "VP"): 2,
        ("VP", "V"): 2,
        ("VP", "NP"): 1,
        ("NP", "DET"): 1,
        ("NP", "N"): 1,
    }
    assert store.total == 9


def test_decompose_single_leaf_is_empty():
    assert decompose(leaf("N", "cat")) == []


def test_train_twice_doubles(six_triple_store):
    t = node("S", [leaf("NP"), leaf("VP")])
    store = TripleStore()
    train(store, [t])
    once = {k.freq for k in store.triples}
    train(store, [t])
    assert all(t.freq == 2 for t in store.triples)
    assert store.total == 4


# -- lookup ---------------------------------------------------------------------


def test_lookup_oracle_fractions(six_triple_store):
    st = six_triple_store
    assert st.lookup(acat("S"), acat("NP")) == 2 / 9
    assert st.lookup(acat("VP"), acat("NP")) == 1 / 9
    assert st.lookup(acat("S"), acat("PP")) == st.delta


def test_lookup_empty_category_matches_everything(six_triple_store):
    empty = Category((FS.empty(),))
    assert six_triple_store.lookup(empty, empty) == 1.0


def test_lookup_empty_store_is_delta():
    store = TripleStore(delta=0.004, omega=0.2)
    assert store.lookup(acat("S"), acat("NP")) == 0.004


def test_lookup_monotone_under_specialization():
    reg = FeatureRegistry.from_text("feature CAT S NP VP\nfeature PLU + -")
    store = TripleStore()
    store.add(
        parse_fs("[CAT NP, PLU -]", reg).disjuncts[0], parse_fs("[CAT S]", reg).disjuncts[0]
    )
    store.add(parse_fs("[CAT NP, PLU +]", reg).disjuncts[0], parse_fs("[CAT S]", reg).disjuncts[0])
    loose = store.lookup(parse_fs("[CAT NP]", reg), parse_fs("[]", reg))
    tight = store.lookup(parse_fs("[CAT NP, PLU -]", reg), parse_fs("[]", reg))
    assert tight <= loose


def _recount(store, a, b):
    """The lookup from scratch: summed frequency of the triples unifiable
    with the pair, over the total; delta when none is."""

    def compatible(t_fs, c):
        return any(unify(t_fs, d) is not None for d in c.disjuncts)

    acc = sum(
        t.freq for t in store.triples if compatible(t.mother, a) and compatible(t.daughter, b)
    )
    return acc / store.total if acc else store.delta


def test_lookup_equals_recount_under_interleaved_adds(monkeypatch):
    reg = FeatureRegistry.from_text("feature CAT S NP VP\nfeature PLU + -")
    texts = ["[CAT S]", "[CAT NP]", "[CAT NP, PLU +]", "[CAT NP, PLU -]", "[CAT VP, PLU -]", "[]"]
    pool = [parse_fs(t, reg).disjuncts[0] for t in texts]
    queries = [Category((d,)) for d in pool]
    queries += [parse_fs(t, reg) for t in ("{[CAT S], [CAT VP]}", "[PLU +]", "[]")]
    tested = collections.Counter()  # (triple structure, query) -> compatibility tests
    plain = scoring._compatible

    def counting(t_fs, disjuncts):
        tested[t_fs, disjuncts] += 1
        return plain(t_fs, disjuncts)

    monkeypatch.setattr(scoring, "_compatible", counting)
    rng = random.Random(7)
    store = TripleStore()
    # one structure as both the mother and the daughter of a triple
    store.add(pool[1], pool[1])
    assert store.lookup(queries[1], queries[1]) == _recount(store, queries[1], queries[1]) == 1.0
    assert tested == {(pool[1], queries[1].disjuncts): 1}
    adds = lookups = 0
    for _ in range(400):
        if rng.random() < 0.3:
            store.add(rng.choice(pool), rng.choice(pool), rng.randint(1, 3))
            adds += 1
        else:
            a, b = rng.choice(queries), rng.choice(queries)
            assert store.lookup(a, b) == _recount(store, a, b)
            lookups += 1
    assert len(store.triples) < adds and lookups > adds  # repeated pairs, reads between writes
    # each pair is tested once, whichever role the structure plays
    assert set(tested.values()) == {1}
    mothers = {t.mother for t in store.triples}
    assert any(t.daughter in mothers for t in store.triples)


# -- score_tree ------------------------------------------------------------------


def test_score_preterminal_tree(six_triple_store):
    t = node("S", [leaf("NP"), leaf("VP")])
    got = score_tree(six_triple_store, t, ATOM_REG)
    assert math.isclose(got, geo_mean([2 / 9, 2 / 9]))
    assert math.isclose(got, 2 / 9)


def test_score_single_daughter(six_triple_store):
    t = node("VP", [leaf("V")])
    assert math.isclose(score_tree(six_triple_store, t, ATOM_REG), 2 / 9)


def test_score_interior_tree(six_triple_store):
    inner = node("VP", [leaf("V")])
    t = node("S", [leaf("NP"), inner])
    inner_score = 2 / 9
    want = geo_mean([2 / 9, (2 / 9) * inner_score])
    assert math.isclose(score_tree(six_triple_store, t, ATOM_REG), want)


def test_score_disjunctive_node_is_max(six_triple_store):
    both = Category((afs("S"), afs("NP")))
    t = ParseTree(both, rule_id="x", children=[leaf("VP")])
    want = max(six_triple_store.lookup(acat("S"), acat("VP")), six_triple_store.delta)
    assert math.isclose(score_tree(six_triple_store, t, ATOM_REG), want)


def _random_tree(rng, labels, depth):
    if depth == 0 or rng.random() < 0.3:
        return leaf(rng.choice(labels), "w%d" % rng.randrange(10))
    n = rng.randint(1, 2)
    return node(rng.choice(labels), [_random_tree(rng, labels, depth - 1) for _ in range(n)])


def _oracle_score(store, tree):
    """Independent recursive evaluation over expansions (test-local)."""
    if tree.is_leaf:
        return None
    best = 0.0
    for m in tree.cat.disjuncts:
        factors_options = []
        for child in tree.children:
            sub = _oracle_score(store, child)
            opts = []
            for d in child.cat.disjuncts:
                v = store.lookup(Category((m,)), Category((d,)))
                opts.append(v if sub is None else v * sub)
            factors_options.append(opts)
        import itertools

        for combo in itertools.product(*factors_options):
            prod = 1.0
            for f in combo:
                prod *= f
            best = max(best, prod ** (1.0 / len(combo)))
    return best


def test_score_tree_matches_recursive_oracle(six_triple_store):
    rng = random.Random(47)
    labels = ["S", "NP", "VP", "V", "DET", "N", "PP"]
    for _ in range(200):
        t = _random_tree(rng, labels, rng.randint(1, 4))
        if t.is_leaf:
            continue
        got = score_tree(six_triple_store, t, ATOM_REG)
        want = _oracle_score(six_triple_store, t)
        assert math.isclose(got, want, rel_tol=1e-12)


# -- judge -----------------------------------------------------------------------


def test_judge_threshold(six_triple_store):
    daughters = [(acat("NP"), None), (acat("VP"), None)]
    st = six_triple_store
    st.omega = 0.2
    assert judge(st, acat("S"), daughters, ATOM_REG)  # score 2/9 > 0.2
    st.omega = 0.23
    assert not judge(st, acat("S"), daughters, ATOM_REG)


def test_judge_omega_zero_always_true(six_triple_store):
    st = six_triple_store
    st.omega = 0.0
    daughters = [(acat("PP"), None), (acat("PP"), None)]  # unseen: delta scores
    assert judge(st, acat("PP"), daughters, ATOM_REG)


def test_judge_omega_one_always_false(six_triple_store):
    st = six_triple_store
    st.omega = 1.0
    daughters = [(acat("NP"), None), (acat("VP"), None)]
    assert not judge(st, acat("S"), daughters, ATOM_REG)


def test_judge_antitone_in_omega(six_triple_store):
    st = six_triple_store
    daughters = [(acat("NP"), None), (acat("VP"), None)]
    accepted = []
    for omega in [0.05, 0.1, 0.2, 0.3, 0.9]:
        st.omega = omega
        accepted.append(judge(st, acat("S"), daughters, ATOM_REG))
    for earlier, later in zip(accepted, accepted[1:]):
        assert earlier or not later


def test_geo_mean_length_invariance():
    for x in (0.2, 0.7):
        for k in (1, 2, 5):
            assert math.isclose(geo_mean([x] * k), x)


# -- persistence -------------------------------------------------------------------


def test_store_save_load_round_trip(tmp_path, six_triple_store):
    path = tmp_path / "triples.txt"
    six_triple_store.save(path, ATOM_REG)
    back = TripleStore.load(path, ATOM_REG)
    assert back.total == six_triple_store.total
    assert back.delta == six_triple_store.delta
    assert len(back.triples) == 6
    assert back.lookup(acat("S"), acat("NP")) == 2 / 9


def test_store_load_keeps_triples_before_params(tmp_path):
    path = tmp_path / "triples.txt"
    path.write_text(
        "triple [CAT S] [CAT NP] 2\n"
        "params delta 0.01 omega 0.5\n"
        "triple [CAT S] [CAT VP] 3\n"
    )
    back = TripleStore.load(path, ATOM_REG)
    assert back.total == 5 and len(back.triples) == 2
    assert (back.delta, back.omega) == (0.01, 0.5)
    assert back.lookup(acat("S"), acat("NP")) == 2 / 5
    path.write_text("triple [CAT S] [CAT NP] 2\nparams delta 0.5 omega 0.5\n")
    with pytest.raises(ValueError):
        TripleStore.load(path, ATOM_REG)


def test_params_takes_delta_and_omega_with_one_value_each(tmp_path):
    path = tmp_path / "triples.txt"
    for params in ("delat 0.2 omega 0.5", "delta", "delta 0.2 omega", "delta 0.1 delta 0.2"):
        path.write_text("params %s\n" % params)
        with pytest.raises(MalformedSyntax):
            TripleStore.load(path, ATOM_REG)
    path.write_text("params omega 0.5\n")
    back = TripleStore.load(path, ATOM_REG)
    assert (back.delta, back.omega) == (scoring.DEFAULT_DELTA, 0.5)


def test_triple_count_below_one_is_malformed(tmp_path):
    path = tmp_path / "triples.txt"
    for count in ("0", "00", "-1", "x", "\u00b2"):
        path.write_text("triple [CAT S] [CAT NP] %s\n" % count, encoding="utf-8")
        with pytest.raises(MalformedSyntax):
            TripleStore.load(path, ATOM_REG)
    path.write_text("triple [CAT S] [CAT NP] 1\n")
    assert TripleStore.load(path, ATOM_REG).total == 1


def test_lookup_bookkeeping_reconstructs_frequencies(six_triple_store):
    # atomic categories do not cross-unify, so each stored pair's lookup
    # recovers exactly its own frequency share
    st = six_triple_store
    for t in st.triples:
        got = st.lookup(Category((t.mother,)), Category((t.daughter,)))
        assert math.isclose(got * st.total, t.freq)


def test_store_rejects_bad_params():
    with pytest.raises(ValueError):
        TripleStore(delta=0.0)
    with pytest.raises(ValueError):
        TripleStore(delta=0.1, omega=1.5)


def test_store_refuses_what_load_would_refuse():
    for delta, omega in [(0.001, 0.0), (0.5, 0.2), (0.3, 0.3), (0.0, 0.5), (0.5, 1.0 + 1e-9)]:
        with pytest.raises(ValueError):
            TripleStore(delta, omega)


def test_every_store_the_constructor_accepts_reloads(tmp_path, six_triple_store):
    path = tmp_path / "triples.txt"
    tiny, below_one = 5e-324, math.nextafter(1.0, 0.0)
    values = [0.0, tiny, 0.2, 0.5, math.nextafter(0.5, 1.0), below_one, 1.0]
    accepted = []
    for delta, omega in itertools.product(values, values):
        try:
            store = TripleStore(delta, omega)
        except ValueError:
            continue
        accepted.append((delta, omega))
        for t in six_triple_store.triples:
            store.add(t.mother, t.daughter, t.freq)
        store.save(path, ATOM_REG)
        back = TripleStore.load(path, ATOM_REG)
        assert (back.delta, back.omega) == (delta, omega)
        assert back.total == store.total and len(back.triples) == 6
    assert (tiny, 1.0) in accepted and (below_one, 1.0) in accepted
    assert (0.5, math.nextafter(0.5, 1.0)) in accepted
    for params in ("delta 0.5 omega 0.2", "delta 0.0", "omega 1.5", "delta x"):
        path.write_text("params %s\n" % params)
        with pytest.raises(MalformedSyntax):
            TripleStore.load(path, ATOM_REG)
