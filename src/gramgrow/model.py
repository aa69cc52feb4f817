"""The model of grammaticality: linear precedence, semantic types, HFC.

Each principle is permissive about its own incompleteness: a check passes
unless it can prove the daughters implausible.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .fs import FS, MalformedSyntax, expand, matches, parse_fs, subsumes
from .grammar import BAR, data_lines

E = "e"
T = "t"

# features the HFC does not share between a projection and its head
# daughter, unless a model file names its own; BAR is always among them
DEFAULT_NONHEAD = frozenset({"NTYPE", "CASE", "CONJ", "NULL", BAR})


class Pattern(NamedTuple):
    """A feature-structure pattern; values may be the wildcard '*', and the
    whole pattern may be negated.  Compares by value."""

    fs: FS
    negated: bool = False
    text: str = ""

    def __repr__(self):
        return "Pattern(%s)" % self.text


def parse_pattern(text, registry):
    raw = text.strip()
    negated = raw.startswith("~")
    body = raw[1:].strip() if negated else raw
    cat = parse_fs(body, registry, pattern=True)
    if len(cat) != 1:
        raise MalformedSyntax("patterns are non-disjunctive: %r" % text)
    return Pattern(cat.disjuncts[0], negated, raw)


def match(p, c):
    """LP-style pattern match: pattern features must be PRESENT in some
    disjunct of the category; a negated pattern matches when the positive
    part does not."""
    positive = any(matches(p.fs, d, presence=True) for d in c.disjuncts)
    return not positive if p.negated else positive


def compatible(p, d):
    """TYP-style match of a structure: unifiability (absent features are no
    obstacle)."""
    return matches(p.fs, d, presence=False)


class LPRule(NamedTuple):
    """A named linear-precedence rule, left < right.  Compares by value."""

    name: str
    left: Pattern
    right: Pattern

    def __repr__(self):
        return "LPRule(%s: %s < %s)" % (self.name, self.left.text, self.right.text)


def violated_lp(rhs, lp_rules):
    """Names of the LP rules the RHS violates: a daughter that matches a
    rule's right side precedes a daughter matching its left side."""
    return [
        rule.name
        for rule in lp_rules
        if any(
            match(rule.right, rhs[i]) and any(match(rule.left, later) for later in rhs[i + 1 :])
            for i in range(len(rhs) - 1)
        )
    ]


# -- semantic types ----------------------------------------------------------


def parse_type(text):
    """Type expression: e | t | <TYPE,TYPE>."""
    expr, rest = _parse_type(text.strip())
    if rest.strip():
        raise MalformedSyntax("trailing input in type: %r" % text)
    return expr


def _parse_type(s):
    s = s.lstrip()
    if not s:
        raise MalformedSyntax("empty type expression")
    if s[0] in ("e", "E", "t", "T"):
        return s[0].lower(), s[1:]
    if s[0] == "<":
        arg, rest = _parse_type(s[1:])
        rest = rest.lstrip()
        if not rest.startswith(","):
            raise MalformedSyntax("expected ',' in type: %r" % s)
        res, rest = _parse_type(rest[1:])
        rest = rest.lstrip()
        if not rest.startswith(">"):
            raise MalformedSyntax("expected '>' in type: %r" % s)
        return (arg, res), rest[1:]
    raise MalformedSyntax("bad type expression: %r" % s)


def apply_type(f, a):
    """Functional application: <x,y> applied to x gives y; else undefined."""
    if isinstance(f, tuple) and f[0] == a:
        return f[1]
    return None


@functools.cache
def _most_specific(rows, d):
    """The type of the most specific row compatible with d (the first
    compatible row if none is most specific), or None.  Rows compare by
    value and d is interned, so it is cached for the process."""
    hits = [(i, pat, typ) for i, (pat, typ) in enumerate(rows) if compatible(pat, d)]
    if not hits:
        return None
    best = []
    for i, pat, typ in hits:
        general = any(
            subsumes(pat.fs, other.fs) and not subsumes(other.fs, pat.fs)
            for j, other, _ in hits
            if j != i
        )
        if not general:
            best.append((i, typ))
    if not best:
        best = [(hits[0][0], hits[0][2])]
    return min(best)[1]


def type_check(rhs, rows, registry=None):
    """Daughters co-occur if some expansion pair's types apply in either
    direction, or either type is undefined; `rows` are the ordered
    (pattern, type) rows that define a partial typing extensionally."""
    if len(rhs) < 2:
        return True
    first = expand(rhs[0], registry)
    second = expand(rhs[1], registry)
    for e1 in first:
        t1 = _most_specific(rows, e1)
        if t1 is None:
            return True
        for e2 in second:
            t2 = _most_specific(rows, e2)
            if t2 is None:
                return True
            if apply_type(t1, t2) is not None or apply_type(t2, t1) is not None:
                return True
    return False


# -- the conjoined critic -------------------------------------------------------


class ModelConfig:
    """LP rules, type rows and the HFC's non-head features.

    A model is an interned value: `load_model` gives one object per
    contents, so `==` and `hash` are those of the object and a model can
    key a process-wide memo.
    """

    def __init__(self, lp_rules, type_rows, nonhead):
        self.lp_rules = lp_rules
        self.type_rows = type_rows  # (Pattern, type), in file order
        self.nonhead = nonhead


@functools.cache
def _model(lp_rules, rows, nonhead):
    """The one model of its contents: LP rules, type rows and non-head
    features, each compared by value."""
    return ModelConfig(lp_rules, rows, nonhead)


def criticise_rhs(rhs, model, registry=None, lp=True, types=True):
    """Conjunction of the enabled principle checks over an instantiated RHS.

    Returns None when every check passes, else the failed principles joined
    by ';': 'lp:' with the names of the violated LP rules, then 'type'.
    """
    reasons = []
    violated = violated_lp(rhs, model.lp_rules) if lp else ()
    if violated:
        reasons.append("lp:" + ",".join(violated))
    if types and not type_check(rhs, model.type_rows, registry):
        reasons.append("type")
    return ";".join(reasons) or None


# -- model files -----------------------------------------------------------------


def load_model(path, registry):
    """Model file: 'lp NAME : P < P', 'type P : TYPE', 'nonhead F1 F2 ...'."""
    lp_rules = []
    rows = []
    nonhead = DEFAULT_NONHEAD
    for line in data_lines(path):
        if line.startswith("lp "):
            head, _, body = line[3:].partition(":")
            left, sep, right = body.partition("<")
            if not sep:
                raise MalformedSyntax("lp line needs '<': %r" % line)
            lp_rules.append(
                LPRule(
                    head.strip(),
                    parse_pattern(left, registry),
                    parse_pattern(right, registry),
                )
            )
        elif line.startswith("type "):
            body, _, typetext = line[5:].rpartition(":")
            if not body:
                raise MalformedSyntax("type line needs ':': %r" % line)
            pattern = parse_pattern(body, registry)
            if pattern.negated:
                raise MalformedSyntax("type patterns cannot be negated: %r" % line)
            rows.append((pattern, parse_type(typetext)))
        elif line.startswith("nonhead "):
            names = [w.upper() for w in line[8:].split()]
            for name in names:
                registry.check(name)
            nonhead = frozenset(names) | {BAR}
        else:
            raise MalformedSyntax("unknown model line: %r" % line)
    return _model(tuple(lp_rules), tuple(rows), nonhead)
