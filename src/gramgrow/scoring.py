"""Treebank statistics and the inductive judgement.

A treebank is collapsed into mother-daughter-frequency triples.  Local trees
are scored by the geometric mean of per-daughter lookup scores (times the
daughter's own subtree score for interior daughters); unseen pairs get the
smoothing score delta.  A super-rule instantiation is accepted when the
geometric mean of its score and its daughters' scores exceeds omega.  Scores
are similarities, not probabilities.
"""

from __future__ import annotations

import functools
import itertools
import math

from .fs import DEFAULT_EXPANSION_CAP, Category, MalformedSyntax, expand, parse_cats, print_fs, unify
from .grammar import data_lines

DEFAULT_DELTA = 0.001
DEFAULT_OMEGA = 0.35


class Triple:
    __slots__ = ("mother", "daughter", "freq", "entries")

    def __init__(self, mother, daughter, freq=1):
        self.mother = mother  # FS, non-disjunctive
        self.daughter = daughter
        self.freq = freq
        # the store's lookup entries that counted this triple, so that a
        # raised frequency reaches their sums
        self.entries = []

    def __repr__(self):
        return "Triple(%s, %s, %d)" % (print_fs(self.mother), print_fs(self.daughter), self.freq)


class TripleStore:
    def __init__(self, delta=DEFAULT_DELTA, omega=DEFAULT_OMEGA):
        if not 0 < delta < omega <= 1:
            raise ValueError("triple stores need 0 < delta < omega <= 1")
        self.delta = delta
        self.omega = omega
        self.triples = []
        self._index = {}
        # (a, b) disjuncts -> [triples tested so far, summed frequency of the
        # compatible ones]; a lookup tests only the triples added since its
        # last visit, and `add` keeps the sums of existing triples current
        self._cache = {}
        self.total = 0

    def add(self, mother, daughter, freq=1):
        if freq < 1:
            raise ValueError("triple frequency must be positive")
        key = (mother, daughter)  # structural equality coincides with `equal`
        triple = self._index.get(key)
        if triple is None:
            triple = Triple(mother, daughter, freq)
            self._index[key] = triple
            self.triples.append(triple)
        else:
            triple.freq += freq
            for entry in triple.entries:
                entry[1] += freq
        self.total += freq

    def lookup(self, a, b):
        """Summed frequency of the triples whose mother unifies with a
        disjunct of category a and whose daughter with a disjunct of b, over
        the grand total; delta when none does (or the store is empty).  The
        sum is kept across adds, so each triple is tested once per pair."""
        key = (a.disjuncts, b.disjuncts)
        entry = self._cache.get(key)
        if entry is None:
            entry = self._cache[key] = [0, 0]
        triples = self.triples
        if entry[0] < len(triples):
            ka, kb = key
            for t in triples[entry[0]:]:
                if _compatible(t.mother, ka) and _compatible(t.daughter, kb):
                    entry[1] += t.freq
                    t.entries.append(entry)
            entry[0] = len(triples)
        # frequencies are integers, so the kept sum is exact
        acc = entry[1]
        return acc / self.total if acc else self.delta

    def save(self, path, registry=None):
        with open(path, "w", encoding="utf-8") as f:
            f.write("params delta %r omega %r\n" % (self.delta, self.omega))
            for t in self.triples:
                f.write(
                    "triple %s %s %d\n"
                    % (print_fs(t.mother, registry), print_fs(t.daughter, registry), t.freq)
                )

    @classmethod
    def load(cls, path, registry):
        params = {}
        rows = []
        for line in data_lines(path):
            if line.startswith("params "):
                words = line.split()[1:]
                names = words[::2]
                if len(words) % 2 or len(set(names)) < len(names) or set(names) - {"delta", "omega"}:
                    raise MalformedSyntax("params takes delta X and omega Y only: %r" % line)
                params = dict(zip(names, words[1::2]))
            elif line.startswith("triple "):
                rows.append(_parse_triple_body(line[7:].strip(), registry))
            else:
                raise MalformedSyntax("unknown triple line: %r" % line)
        delta = params.get("delta", DEFAULT_DELTA)
        omega = params.get("omega", DEFAULT_OMEGA)
        try:
            store = cls(float(delta), float(omega))
        except ValueError as err:
            raise MalformedSyntax(str(err)) from None
        for (mother, daughter), freq in rows:
            store.add(mother, daughter, freq)
        return store


def _parse_triple_body(body, registry):
    words = body.rsplit(None, 1)
    if len(words) != 2 or not words[1].isdecimal() or int(words[1]) < 1:
        raise MalformedSyntax("triple count must be a positive integer: %r" % body)
    cats = parse_cats(words[0], registry)
    if len(cats) != 2:
        raise MalformedSyntax("triple line needs two categories and a count: %r" % body)
    if any(len(c) != 1 for c in cats):
        raise MalformedSyntax("triple categories are non-disjunctive: %r" % body)
    return [c.disjuncts[0] for c in cats], int(words[1])


@functools.cache
def _compatible(t_fs, disjuncts):
    """A pure function of interned values, cached for the process and shared
    by mothers and daughters: a structure may be either.  `unify` is looked
    up per call, so a rebound fs.unify sees every miss."""
    return any(unify(t_fs, d) is not None for d in disjuncts)


# -- decomposition ----------------------------------------------------------


def decompose(tree):
    """Mother-daughter pairs of every local tree, preorder; daughters that
    are lexical tokens contribute their (preterminal) category, below which
    nothing is produced."""
    pairs = []
    for node in tree.walk():
        if node.is_leaf:
            continue
        m = _single(node.cat)
        for child in node.children:
            pairs.append((m, _single(child.cat)))
    return pairs


def _single(cat):
    if cat.is_bottom:
        raise ValueError("bottom category in a tree")
    return cat.disjuncts[0]


def train(store, trees):
    """Merge the decomposed pairs of whole parse trees into the store."""
    for tree in trees:
        for m, d in decompose(tree):
            store.add(m, d)


def train_local_trees(store, locals_):
    """Merge one-level local trees (mother category, daughter categories)."""
    for mother, daughters in locals_:
        m = _single(mother)
        for d in daughters:
            store.add(m, _single(d))


# -- scoring -----------------------------------------------------------------


def geo_mean(values):
    if not values:
        return 1.0
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))


def score_local(store, mother, daughters, registry=None, on_cap=None):
    """Score of a one-level local tree.

    `daughters` is a sequence of (category, subtree score or None); lexical
    (preterminal) daughters carry None and contribute lookup alone, interior
    daughters contribute lookup times their subtree score.  A disjunctive
    node scores as the maximum over its non-disjunctive expansions, taken
    over the first DEFAULT_EXPANSION_CAP combinations of them.
    """
    exps = []
    for c in [mother] + [c for c, _ in daughters]:
        images, over_cap = _images(c, registry)
        if over_cap and on_cap is not None:
            on_cap(over_cap)
        exps.append(images)
    total = math.prod(len(e) for e in exps)
    if total > DEFAULT_EXPANSION_CAP and on_cap is not None:
        on_cap(total)
    subs = [sub for _, sub in daughters]
    # the n-th root is monotone, so the root of the largest product is the
    # largest geometric mean
    best = 0.0
    for m, *combo in itertools.islice(itertools.product(*exps), DEFAULT_EXPANSION_CAP):
        prod = 1.0
        for d, sub in zip(combo, subs):
            f = store.lookup(m, d)
            if sub is not None:
                f *= sub
            prod *= f
        if prod > best:
            best = prod
    return best ** (1.0 / len(subs)) if subs else best


@functools.cache
def _images(c, registry):
    """The first DEFAULT_EXPANSION_CAP non-disjunctive images of c, each as a
    category, and the number of its images when that is more (else 0): a
    pure function of interned values, cached for the process.  `expand` is
    looked up per call, so a wrapper bound in its place sees every miss."""
    over_cap = []
    images = tuple(Category((e,)) for e in expand(c, registry, on_cap=over_cap.append))
    return images, over_cap[0] if over_cap else 0


def score_tree(store, tree, registry=None):
    """Recursive tree score: every daughter's subtree is scored first and
    feeds its parent's local score."""
    if tree.is_leaf:
        return None
    daughters = [(child.cat, score_tree(store, child, registry)) for child in tree.children]
    return score_local(store, tree.cat, daughters, registry)


def judge(store, mother, daughters, registry=None, on_cap=None):
    """Acceptance test for a super-rule instantiation: the geometric mean of
    the local tree's score and its interior daughters' scores must exceed
    omega.  The local score when it does, so that an accepted edge need
    not score again; None when it does not."""
    local = score_local(store, mother, daughters, registry, on_cap)
    outer = [local] + [s for _, s in daughters if s is not None]
    return local if geo_mean(outer) > store.omega else None
