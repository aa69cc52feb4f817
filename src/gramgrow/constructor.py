"""Builds candidate rule left-hand sides from instantiated super-rule RHSs.

The LHS of a learnt rule is the disjunction of the bar-raised (and, for
binary rules, same-bar) projections of its major daughters.  Head features
are shared between a projection and its source daughter when the head
feature convention is compiled in.
"""

from __future__ import annotations

from .fs import FSError, _Graph
from .grammar import BAR, LHS, LEARNT, Rule, bar_of, slot

MINOR = "MINOR"
NONE = "NONE"  # the MINOR value of a major category

DEFAULT_NONHEAD = frozenset({"NTYPE", "CASE", "CONJ", "NULL", BAR})


class XBarConfig:
    def __init__(self, max_bar, nonhead=DEFAULT_NONHEAD, hfc=False):
        self.max_bar = max_bar
        self.nonhead = frozenset(nonhead) | {BAR}
        self.hfc = hfc

    def with_hfc(self, hfc):
        return XBarConfig(self.max_bar, self.nonhead, hfc)


class Rejection:
    """Why no rule could be constructed."""

    MINOR = "minor"
    MAX_BAR = "max-bar"
    NO_BAR = "no-bar"
    NO_HEAD = "no-head-candidate"

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return "Rejection(%s)" % self.reason


def is_minor(d):
    v = d.get(MINOR)
    if v is None:
        return False
    if isinstance(v, str):
        return v != NONE
    if isinstance(v, frozenset):
        return NONE not in v
    return True


def project(d, bar, cfg):
    """Image of a major daughter at the given bar level."""
    if is_minor(d):
        raise FSError("cannot project a minor category")
    if not 0 <= bar <= cfg.max_bar:
        raise FSError("bar level %d out of range" % bar)
    graph = _Graph()
    return graph.freeze(_project_node(graph, graph.load(d), bar, cfg))


def _project_node(graph, src, bar, cfg):
    """Projection of the node src as a new node of the graph; with HFC on
    the head-feature values are src's own nodes (shared), otherwise src must
    be a private copy."""
    node = graph.add()
    feats = graph.feats[node]
    for feat, child in graph.feats[src].items():
        if feat == BAR:
            continue
        if cfg.hfc and feat in cfg.nonhead:
            continue
        feats[feat] = child
    feats[BAR] = graph.add((str(bar),))
    return node


def _candidate_bars(d, cfg, include_same_bar):
    if is_minor(d):
        return None, Rejection.MINOR
    bar = bar_of(d)
    if bar is None:
        return None, Rejection.NO_BAR
    bars = [bar, bar + 1] if include_same_bar else [bar + 1]
    bars = [b for b in bars if b <= cfg.max_bar]
    if not bars:
        return None, Rejection.MAX_BAR
    return bars, None


def construct_unary_cat(c, cfg, rule_id="*unary?"):
    instances = []
    reasons = []
    for d in c.disjuncts:
        bars, why = _candidate_bars(d, cfg, include_same_bar=False)
        if bars is None:
            reasons.append(why)
            continue
        for b in bars:
            instances.append(_instance(cfg, b, 0, [d]))
    if not instances:
        return Rejection(reasons[0] if reasons else Rejection.NO_HEAD)
    return Rule(rule_id, 1, tuple(dict.fromkeys(instances)), LEARNT)


def construct_binary_cat(c1, c2, cfg, rule_id="*binary?"):
    instances = []
    any_candidate = False
    for head_pos, head_cat in ((0, c1), (1, c2)):
        other = c2 if head_pos == 0 else c1
        for d in head_cat.disjuncts:
            bars, _ = _candidate_bars(d, cfg, include_same_bar=True)
            if bars is None:
                continue
            any_candidate = True
            for b in bars:
                for o in other.disjuncts:
                    daughters = [d, o] if head_pos == 0 else [o, d]
                    instances.append(_instance(cfg, b, head_pos, daughters))
    if not any_candidate:
        return Rejection(Rejection.NO_HEAD)
    return Rule(rule_id, 2, tuple(dict.fromkeys(instances)), LEARNT)


def _instance(cfg, bar, head_pos, daughters):
    """One rule instance: wrapper with the projection of daughters[head_pos]
    at `bar` as LHS.  With HFC the projection shares the head daughter's
    feature values."""
    graph = _Graph()
    root = graph.add()
    roots = [graph.load(d) for d in daughters]
    for i, r in enumerate(roots, start=1):
        graph.feats[root][slot(i)] = r
    if cfg.hfc:
        head_src = roots[head_pos]
    else:
        head_src = graph.load(daughters[head_pos])  # private copy: no sharing
    graph.feats[root][LHS] = _project_node(graph, head_src, bar, cfg)
    return graph.freeze(root)

