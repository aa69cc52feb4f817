"""Post-processing of the learnt grammar: disjunct resolution by score,
low-score pruning, and structural-support retraction."""

from __future__ import annotations

from .fs import Category, expand, print_fs
from .grammar import LHS, SupportRecord, narrow, rule_of
from .scoring import geo_mean


class RefineParams:
    def __init__(self, prune_threshold=None):
        if prune_threshold is not None and not 0 < prune_threshold < 1:
            raise ValueError("prune threshold must lie in (0,1)")
        self.prune_threshold = prune_threshold  # None: use the store's delta


def candidate_scores(store, rule, registry=None):
    """Each non-disjunctive LHS image scored flat: the geometric mean of
    lookup(L, rhs_i) over the RHS positions."""
    rhs = [rule.rhs(i) for i in range(1, rule.arity + 1)]
    out = []
    for lhs in expand(rule.lhs, registry):
        score = geo_mean([store.lookup(Category((lhs,)), r) for r in rhs])
        out.append((lhs, score))
    return out


def rule_score(store, rule, registry=None):
    return max((s for _, s in candidate_scores(store, rule, registry)), default=0.0)


def refine_lhs(store, rule, registry=None):
    """Replace a disjunctive LHS by its unique highest-scoring disjunct; a
    tied or non-disjunctive rule is left unchanged.

    Returns (rule, chosen LHS or None, best score).
    """
    scored = candidate_scores(store, rule, registry)
    if len(scored) < 2:
        return rule, None, scored[0][1] if scored else 0.0
    best = max(s for _, s in scored)
    winners = [lhs for lhs, s in scored if s == best]
    if len(winners) != 1:
        return rule, None, best
    winner = winners[0]
    instances = narrow(rule.instances, LHS, (winner,))
    refined = rule_of(rule.id, rule.arity, instances, rule.origin)
    return refined, winner, best


def prune_low_score(store, grammar, threshold, registry=None):
    """Remove learnt rules whose score does not exceed the threshold; the
    original partition is never touched."""
    removed = []
    for rule in list(grammar.learnt):
        if rule_score(store, rule, registry) <= threshold:
            grammar.remove_learnt(rule.id)
            removed.append(rule.id)
    return removed


def prune_unsupported(grammar):
    """Iterate to fixpoint: drop learnt rules whose recorded context mentions
    a rule no longer in the grammar."""
    removed = []
    changed = True
    while changed:
        changed = False
        for rule in list(grammar.learnt):
            support = grammar.support.get(rule.id)
            if support is None:
                continue
            for rid in support.daughters:
                if rid == SupportRecord.LEXICAL:
                    continue
                if rid not in grammar:
                    grammar.remove_learnt(rule.id)
                    removed.append(rule.id)
                    changed = True
                    break
    return removed


def refine_grammar(store, grammar, params=None, registry=None, labels=None):
    """Refine every learnt rule, prune low scorers, then drop rules whose
    structural support has been undermined.  Returns report lines."""
    params = params or RefineParams()
    threshold = params.prune_threshold if params.prune_threshold is not None else store.delta
    report = []
    for rule in list(grammar.learnt):
        refined, winner, score = refine_lhs(store, rule, registry)
        if winner is not None:
            n = len(expand(rule.lhs, registry))
            grammar.replace_learnt(rule.id, refined)
            report.append(
                " Refining %d rules encoded in %s score: %r" % (n, rule.id, score)
            )
            if labels is not None:
                report.append("rule is %s" % labels.paraphrase_rule(refined))
            else:
                report.append(
                    "rule is %s -> %s"
                    % (
                        print_fs(refined.lhs, registry),
                        " ".join(
                            print_fs(refined.rhs(i), registry)
                            for i in range(1, refined.arity + 1)
                        ),
                    )
                )
    for rid in prune_low_score(store, grammar, threshold, registry):
        report.append(" Deleting %s (score <= %r)" % (rid, threshold))
    for rid in prune_unsupported(grammar):
        report.append(" Deleting %s (support undermined)" % rid)
    return report
