"""Head feature convention check on built rules.

The constructor compiles the HFC into every rule it builds; this check
verifies that from the rule's instances alone.
"""

from gramgrow.fs import FS
from gramgrow.grammar import BAR, LHS, slot


def hfc_check(rule, cfg):
    """A rule obeys the HFC if some LHS disjunct shares all head features with
    some daughter and carries no non-head feature besides BAR."""
    head_ok = lambda feat: feat not in cfg.nonhead or feat == BAR
    for inst in rule.instances:
        lhs = inst.get(LHS) or FS.empty()
        if not all(head_ok(f) for f in lhs.root_features):
            continue
        for i in range(1, rule.arity + 1):
            d = inst.get(slot(i))
            if not isinstance(d, FS):
                continue
            if _agrees_on_head_features(lhs, d, cfg):
                return True
    return False


def _agrees_on_head_features(lhs, d, cfg):
    feats = set(lhs.root_features) | set(d.root_features)
    for f in feats:
        if f in cfg.nonhead:  # BAR included: exempt from agreement
            continue
        if lhs.get(f, "\0missing") != d.get(f, "\0missing"):
            return False
    return True
