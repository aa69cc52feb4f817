"""Seeded random generators for feature structures and categories."""

import random

from gramgrow.fs import Category, FeatureRegistry, _Graph, expand, subsumes, unify

GEN_REGISTRY = FeatureRegistry.from_text(
    """
feature A 1 2 3
feature B 1 2
feature C 1 2 3 4
feature D x y
"""
)

_FEATURES = ("A", "B", "C", "D")
_VALUES = {"A": ("1", "2", "3"), "B": ("1", "2"), "C": ("1", "2", "3", "4"), "D": ("X", "Y")}


def random_fs(rng, depth=2, share=True):
    """A random acyclic feature structure, sometimes with shared nodes."""
    graph = _Graph()
    pool = []

    def build(level):
        node = graph.add()
        feats = graph.feats[node]
        for feat in _FEATURES:
            roll = rng.random()
            if roll < 0.45:
                continue
            if roll < 0.75 or level >= depth:
                vals = _VALUES[feat]
                if rng.random() < 0.25 and len(vals) > 2:
                    feats[feat] = graph.add(rng.sample(vals, 2))
                else:
                    feats[feat] = graph.add((rng.choice(vals),))
            elif share and pool and rng.random() < 0.4:
                feats[feat] = rng.choice(pool)
            else:
                child = build(level + 1)
                pool.append(child)
                feats[feat] = child
        return node

    return graph.freeze(build(0))


def random_extension(rng, base, tries=8):
    """A random structure subsumed by base (base unified with random junk)."""
    for _ in range(tries):
        ext = unify(base, random_fs(rng, depth=1, share=False))
        if ext is not None:
            return ext
    return base


def random_category(rng, max_disjuncts=3, depth=1):
    n = rng.randint(1, max_disjuncts)
    return Category([random_fs(rng, depth=depth) for _ in range(n)])


def denotation(c, registry=None, cap=64):
    """Maximally general representatives of expand(c), for denotational
    comparison of categories."""
    exps = expand(c, registry, cap)
    kept = []
    for i, d in enumerate(exps):
        drop = False
        for j, e in enumerate(exps):
            if i == j:
                continue
            if subsumes(e, d) and not (subsumes(d, e) and i < j):
                drop = True
                break
        if not drop and d not in kept:
            kept.append(d)
    return kept


# the reader's alphabet: every kind of token, some malformed ones, atoms of
# the demo registry and some it lacks, and whitespace
READER_PIECES = (
    "[", "]", "{", "}", ",", "=", "#1", "#12", "#", "#x", "⊥", "*", "é", ";", "~",
    "N", "bar", "PER", "X", "+", "-", "1", "2", "nom", "y", " ", "\n",
)
_READER_FEATURES = ("N", "BAR", "PER", "CASE", "X")
_READER_ATOMS = ("+", "-", "1", "2", "nom", "*", "y")


def random_text(rng):
    """A short text over the reader's alphabet: a random category, most of
    them well formed, with one piece changed or put in half the time."""
    tokens = _text_category(rng, 2)
    if rng.random() < 0.5:
        at = rng.randrange(len(tokens) + 1)
        tokens[at:at + rng.randrange(2)] = [rng.choice(READER_PIECES)]
    return "".join(tok + rng.choice(("", " ", " ", "\n")) for tok in tokens)


def _text_category(rng, depth):
    roll = rng.random()
    if roll < 0.1:
        return ["⊥"]
    if roll < 0.3:
        return ["{"] + _text_fs(rng, depth) + [","] + _text_fs(rng, depth) + ["}"]
    return _text_fs(rng, depth)


def _text_fs(rng, depth):
    out = ["["]
    for k, feat in enumerate(rng.sample(_READER_FEATURES, rng.randrange(3))):
        out += ([","] if k else []) + [feat] + _text_value(rng, depth)
    return out + ["]"]


def _text_value(rng, depth):
    roll = rng.random()
    if roll < 0.25:
        tag = [rng.choice(("#1", "#2"))]
        return tag + ["="] + _text_value(rng, depth) if rng.random() < 0.5 else tag
    if roll < 0.4 and depth:
        return _text_fs(rng, depth - 1)
    if roll < 0.55:
        return ["{", rng.choice(_READER_ATOMS), ",", rng.choice(_READER_ATOMS), "}"]
    return [rng.choice(_READER_ATOMS)]
