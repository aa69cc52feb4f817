"""Builds candidate rule left-hand sides from instantiated super-rule RHSs.

The LHS of a learnt rule is the disjunction of the bar-raised (and, for
binary rules, same-bar) projections of its major daughters.  Head features
are shared between a projection and its source daughter when the head
feature convention is compiled in.

Construction yields a `Rule` under a placeholder id (`*unary?` or
`*binary?`, which the chart renames), or the reason no rule could be built:
one of the strings below, which the chart records as the edge's
`bad_reason`.
"""

from __future__ import annotations

import functools

from .fs import _Graph
from .grammar import BAR, LHS, LEARNT, bar_of, rule_of, slot

MINOR = "MINOR"
NONE = "NONE"  # the MINOR value of a major category

# why no rule could be built
MINOR_DAUGHTER = "minor"
NO_BAR = "no-bar"
MAX_BAR = "max-bar"
NO_HEAD = "no-head-candidate"


def is_minor(d):
    v = d.get(MINOR)
    if v is None:
        return False
    if isinstance(v, str):
        return v != NONE
    if isinstance(v, frozenset):
        return NONE not in v
    return True


def _project_node(graph, src, bar, nonhead):
    """Projection of the node src as a new node of the graph.  With the HFC
    on (`nonhead` a set) the head-feature values are src's own nodes
    (shared) and the non-head features are dropped; with it off (`nonhead`
    None) src must be a private copy."""
    node = graph.add()
    feats = graph.feats[node]
    for feat, child in graph.feats[src].items():
        if feat == BAR:
            continue
        if nonhead is not None and feat in nonhead:
            continue
        feats[feat] = child
    feats[BAR] = graph.add((str(bar),))
    return node


def _candidate_bars(d, max_bar, include_same_bar):
    """The bar levels a major daughter can project to, or the reason it
    cannot head a rule."""
    if is_minor(d):
        return MINOR_DAUGHTER
    bar = bar_of(d)
    if bar is None:
        return NO_BAR
    bars = [bar, bar + 1] if include_same_bar else [bar + 1]
    bars = [b for b in bars if b <= max_bar]
    return bars or MAX_BAR


def construct_unary_cat(c, max_bar, nonhead):
    """A unary rule over c, or the reason of c's first disjunct."""
    instances = []
    reasons = []
    for d in c.disjuncts:
        bars = _candidate_bars(d, max_bar, include_same_bar=False)
        if isinstance(bars, str):
            reasons.append(bars)
            continue
        for b in bars:
            instances.append(_instance(nonhead, b, 0, (d,)))
    if not instances:
        return reasons[0] if reasons else NO_HEAD
    return rule_of("*unary?", 1, tuple(dict.fromkeys(instances)), LEARNT)


def construct_binary_cat(c1, c2, max_bar, nonhead):
    """A binary rule over c1 c2, or NO_HEAD when neither can head it."""
    instances = []
    any_candidate = False
    for head_pos, head_cat in ((0, c1), (1, c2)):
        other = c2 if head_pos == 0 else c1
        for d in head_cat.disjuncts:
            bars = _candidate_bars(d, max_bar, include_same_bar=True)
            if isinstance(bars, str):
                continue
            any_candidate = True
            for b in bars:
                for o in other.disjuncts:
                    daughters = (d, o) if head_pos == 0 else (o, d)
                    instances.append(_instance(nonhead, b, head_pos, daughters))
    if not any_candidate:
        return NO_HEAD
    return rule_of("*binary?", 2, tuple(dict.fromkeys(instances)), LEARNT)


@functools.cache
def _instance(nonhead, bar, head_pos, daughters):
    """One rule instance: wrapper with the projection of daughters[head_pos]
    at `bar` as LHS.  With HFC the projection shares the head daughter's
    feature values.  A pure function of interned values (`daughters` a
    tuple), so it is cached for the process."""
    graph = _Graph()
    root = graph.add()
    roots = [graph.load(d) for d in daughters]
    for i, r in enumerate(roots, start=1):
        graph.feats[root][slot(i)] = r
    if nonhead is not None:
        head_src = roots[head_pos]
    else:
        head_src = graph.load(daughters[head_pos])  # private copy: no sharing
    graph.feats[root][LHS] = _project_node(graph, head_src, bar, nonhead)
    return graph.freeze(root)
