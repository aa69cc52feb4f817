"""The rule cover test without the root-atom prefilter, the reference for
`grammar.rule_subsumes`: the prefilter may only skip pairs it rejects."""

from gramgrow.fs import subsumes_cat
from gramgrow.grammar import LHS, cat_at, slot


def covers_unfiltered(r, s):
    """r covers s: same arity, and r's category covers s's at the LHS and at
    each RHS slot."""
    feats = [LHS] + [slot(i) for i in range(1, r.arity + 1)]
    return r.arity == s.arity and all(
        subsumes_cat(cat_at(r.instances, f), cat_at(s.instances, f)) for f in feats
    )
