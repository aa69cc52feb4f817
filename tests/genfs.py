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
