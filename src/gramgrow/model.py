"""The model of grammaticality: linear precedence, semantic types, HFC.

Each principle is permissive about its own incompleteness: a check passes
unless it can prove the daughters implausible.
"""

from __future__ import annotations

from .fs import MalformedSyntax, expand, matches, parse_fs, subsumes
from .grammar import data_lines, max_bar_of

E = "e"
T = "t"


class Pattern:
    """A feature-structure pattern; values may be the wildcard '*', and the
    whole pattern may be negated."""

    __slots__ = ("fs", "negated", "text")

    def __init__(self, fs, negated=False, text=""):
        self.fs = fs
        self.negated = negated
        self.text = text

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


class LPRule:
    __slots__ = ("name", "left", "right")

    def __init__(self, name, left, right):
        self.name = name
        self.left = left
        self.right = right

    def __repr__(self):
        return "LPRule(%s: %s < %s)" % (self.name, self.left.text, self.right.text)


def lp_check(rhs, lp_rules):
    """False iff some daughter that matches a rule's right side precedes a
    daughter matching its left side."""
    if len(rhs) < 2:
        return True
    for rule in lp_rules:
        for i in range(len(rhs)):
            if not match(rule.right, rhs[i]):
                continue
            for j in range(i + 1, len(rhs)):
                if match(rule.left, rhs[j]):
                    return False
    return True


def violated_lp(rhs, lp_rules):
    out = []
    for rule in lp_rules:
        if not lp_check(rhs, [rule]):
            out.append(rule.name)
    return out


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


class TypeMap:
    """Ordered (pattern, type) rows extensionally defining a partial typing."""

    def __init__(self, rows=()):
        self.rows = tuple(rows)  # (Pattern, type)
        self._types = {}  # structure -> its type, filled on first lookup

    def lookup(self, d):
        """Type of the most specific matching row, or None."""
        if d not in self._types:
            self._types[d] = self._most_specific(d)
        return self._types[d]

    def _most_specific(self, d):
        hits = [(i, pat, typ) for i, (pat, typ) in enumerate(self.rows) if compatible(pat, d)]
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


def type_check(rhs, tm, registry=None):
    """Daughters co-occur if some expansion pair's types apply in either
    direction, or either type is undefined."""
    if len(rhs) < 2:
        return True
    first = expand(rhs[0], registry)
    second = expand(rhs[1], registry)
    for e1 in first:
        t1 = tm.lookup(e1)
        if t1 is None:
            return True
        for e2 in second:
            t2 = tm.lookup(e2)
            if t2 is None:
                return True
            if apply_type(t1, t2) is not None or apply_type(t2, t1) is not None:
                return True
    return False


# -- the conjoined critic -------------------------------------------------------


class ModelConfig:
    def __init__(self, lp_rules, typemap, xbar):
        self.lp_rules = lp_rules
        self.typemap = typemap
        self.xbar = xbar


class Reject:
    __slots__ = ("reasons",)

    def __init__(self, reasons):
        self.reasons = tuple(reasons)

    def __bool__(self):
        return False

    def __repr__(self):
        return "Reject(%s)" % ", ".join(self.reasons)


ACCEPT = True


def criticise_rhs(rhs, model, registry=None, lp=True, types=True):
    """Conjunction of the enabled principle checks over an instantiated RHS.

    Returns True or a Reject listing every failed principle.
    """
    reasons = []
    violated = violated_lp(rhs, model.lp_rules) if lp else ()
    if violated:
        reasons.append("lp:" + ",".join(violated))
    if types and not type_check(rhs, model.typemap, registry):
        reasons.append("type")
    if reasons:
        return Reject(reasons)
    return ACCEPT


# -- model files -----------------------------------------------------------------


def load_model(path, registry):
    """Model file: 'lp NAME : P < P', 'type P : TYPE', 'nonhead F1 F2 ...'."""
    from .constructor import DEFAULT_NONHEAD, XBarConfig

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
            nonhead = frozenset(w.upper() for w in line[8:].split())
        else:
            raise MalformedSyntax("unknown model line: %r" % line)
    xbar = XBarConfig(max_bar_of(registry), nonhead=nonhead)
    return ModelConfig(lp_rules, TypeMap(rows), xbar)
