"""Rules, the original/learnt grammar partition, lexica and paraphrase labels.

A rule is stored as a disjunction of "instance" structures: wrapper feature
structures with one slot per rule position (*LHS*, *R1*, *R2*).  Reentrancy
between the left-hand side and the daughters is then ordinary node sharing
inside one instance, and instantiating a daughter during parsing narrows the
left-hand side for free.
"""

from __future__ import annotations

import functools
import itertools
import re

from . import fs as fsmod
from .fs import (
    Category,
    EMPTY_CAT,
    FS,
    FSError,
    MalformedSyntax,
    fs_from_pairs,
    parse_fs,
    parse_instances,
    read_text,
    simplify,
    subsumes_cat,
)

LHS = "*LHS*"
BAR = "BAR"


@functools.cache
def slot(i):
    """The feature name of RHS position i, made once per position."""
    return "*R%d*" % i


ORIGINAL = "original"
LEARNT = "learnt"
SUPER_UNARY = "super-unary"
SUPER_BINARY = "super-binary"

_COMMENT = re.compile(r"#(?!\d)")


def data_lines(path):
    """The non-blank lines of a resource file, stripped and without '#'
    comments; '#<digits>' is a reentrancy tag, not a comment."""
    lines = [_COMMENT.split(line, 1)[0].strip() for line in read_text(path).split("\n")]
    return [line for line in lines if line]


class GrammarError(FSError):
    pass


class SupportRecord:
    """Daughter context a learnt rule was acquired under."""

    __slots__ = ("mother", "daughters")

    LEXICAL = "<lex>"

    def __init__(self, mother, daughters):
        self.mother = mother
        self.daughters = tuple(daughters)

    def __repr__(self):
        return "SupportRecord(%r, %r)" % (self.mother, self.daughters)


class Rule:
    """A rule: an id, an arity, a tuple of wrapper instances and an origin.
    Rules are interned values that only `rule_of` makes, so equality and
    hashing are those of the object and a rule can key a process-wide memo."""

    __slots__ = ("id", "arity", "instances", "origin")

    def __init__(self, rule_id, arity, instances, origin):
        self.id = rule_id
        self.arity = arity
        self.instances = instances
        self.origin = origin

    @property
    def lhs(self):
        return cat_at(self.instances, LHS)

    def rhs(self, i):
        return cat_at(self.instances, slot(i))

    def renamed(self, rule_id):
        """The same rule under another id; cat_at gives it the same
        category objects, since they depend on the instances alone."""
        return rule_of(rule_id, self.arity, self.instances, self.origin)

    @property
    def rhs_cats(self):
        return tuple(self.rhs(i) for i in range(1, self.arity + 1))

    def __repr__(self):
        return "Rule(%s)" % self.id


@functools.cache
def rule_of(rule_id, arity, instances, origin):
    """The one rule of its contents; `instances` is a tuple of wrapper FS."""
    if not 1 <= arity <= 2 and origin != ORIGINAL:
        raise GrammarError("learnt rules are unary or binary")
    return Rule(rule_id, arity, instances, origin)


# cat_at, narrow, _unified, proposals, _covers (root-atom prefilter
# included), _root_atoms and _alternative are pure functions of interned
# values, so each is cached for the process: an entry never goes stale, and
# equal arguments get the same result object.  Callers pass arguments
# positionally, so that one call is one cache key.


@functools.cache
def cat_at(instances, feat):
    """The category at one rule position: the simplified disjunction of the
    instances' values there (an unconstrained value reads as [])."""
    values = [inst.get(feat) for inst in instances]
    return simplify(Category([v if isinstance(v, FS) else FS.empty() for v in values]))


def make_rule(rule_id, lhs_cat, rhs_cats, origin=ORIGINAL):
    """Build a rule from plain categories (no cross-position sharing): one
    instance per choice of a disjunct at each position, the LHS varying
    slowest."""
    cats = [lhs_cat, *rhs_cats]
    if any(c.is_bottom for c in cats):
        raise GrammarError("rule %s has an inconsistent category" % rule_id)
    feats = [LHS] + [slot(i) for i in range(1, len(cats))]
    combos = itertools.product(*(c.disjuncts for c in cats))
    instances = tuple(fs_from_pairs(zip(feats, combo)) for combo in combos)
    return rule_of(rule_id, len(rhs_cats), instances, origin)


@functools.cache
def narrow(instances, feat, disjuncts):
    """The instances that accept a daughter at one rule position: each
    instance unified with each daughter disjunct at `feat`, instances first,
    without repeats.  Pairs whose root atoms clash are never unified; every
    other pair is unified once per process, whichever instance tuples share
    it (see _unified).  Instances that share a value at `feat` share its
    clash tests."""
    unclashed = {}  # value at feat -> the disjuncts whose root atoms it admits
    found = []
    for inst in instances:
        slot_fs = inst.get(feat)
        ds = unclashed.get(slot_fs)
        if ds is None:
            if isinstance(slot_fs, FS):
                ds = [d for d in disjuncts if not fsmod.clashes(slot_fs, d)]
            else:
                ds = disjuncts
            unclashed[slot_fs] = ds
        for d in ds:
            u = _unified(inst, feat, d)
            if u is not None:
                found.append(u)
    return tuple(dict.fromkeys(found))


@functools.cache
def _unified(inst, feat, d):
    # fsmod.unify is looked up per call, so a rebound fs.unify sees every miss
    return fsmod.unify(inst, d, at=feat)


@functools.cache
def proposals(rules, disjuncts):
    """(rule, narrowed instances) for each of `rules`, a tuple, in order,
    whose first daughter accepts a category with these disjuncts; rules
    that accept none of it are left out."""
    first = slot(1)
    found = []
    for rule in rules:
        insts = narrow(rule.instances, first, disjuncts)
        if insts:
            found.append((rule, insts))
    return tuple(found)


@functools.cache
def super_rule(arity):
    """The super rule of an arity: one object per process."""
    origin = SUPER_UNARY if arity == 1 else SUPER_BINARY
    cats = [EMPTY_CAT] * arity
    return make_rule("*super-%s*" % ("unary" if arity == 1 else "binary"), EMPTY_CAT, cats, origin)


def rule_subsumes(r, s):
    """r covers s: same arity, LHS covers positionally and per RHS slot."""
    return r.arity == s.arity and _covers(r.instances, s.instances, r.arity)


@functools.cache
def _covers(instances, others, arity):
    """The categories of `instances` cover those of `others` at the LHS and
    at each of `arity` RHS slots.  When their root atoms clash (see
    _atoms_clash) they cannot, and no category is built or compared."""
    if _atoms_clash(instances, others):
        return False
    return all(
        subsumes_cat(cat_at(instances, feat), cat_at(others, feat))
        for feat in [LHS] + [slot(i) for i in range(1, arity + 1)]
    )


@functools.cache
def _root_atoms(instances):
    """(position, feature) -> atom mask, for each feature that every
    instance restricts to atoms at the root of that rule position: the
    union of those atoms."""
    found = None
    for inst in instances:
        mine = {}
        for pos in inst.root_features:
            value = inst.get(pos)
            if isinstance(value, FS):
                for feat, mask in value.root_atoms().items():
                    mine[pos, feat] = mask
        if found is None:
            found = mine
        else:
            found = {k: mask | mine[k] for k, mask in found.items() if k in mine}
    return found


def _atoms_clash(instances, others):
    """Some position and feature that both instance tuples restrict to atoms
    admits no common atom, so neither covers the other: every expansion of
    every disjunct there keeps its atoms apart from the other's."""
    return fsmod.masks_clash(_root_atoms(instances), _root_atoms(others))


def max_bar_of(registry):
    """The largest digit-only BAR value the registry declares, or 1 when it
    declares none."""
    if not registry.has_feature(BAR):
        return 1
    return max((int(v) for v in registry.values_of(BAR) if v.isdigit()), default=1)


class Grammar:
    """The original rule set and the learnt rule set, over one registry."""

    def __init__(self, registry):
        self.registry = registry
        self.original = []
        self.learnt = []
        self._by_id = {}
        self._learn_counter = 0
        self.support = {}  # learnt rule id -> the SupportRecord it was retained with

    def __contains__(self, rule_id):
        return rule_id in self._by_id

    def rule(self, rule_id):
        return self._by_id[rule_id]

    @property
    def rules(self):
        return self.original + self.learnt

    def _add(self, rule, partition):
        if rule.id in self._by_id:
            raise GrammarError("duplicate rule id %r" % rule.id)
        partition.append(rule)
        self._by_id[rule.id] = rule

    def add_original(self, rule):
        self._add(rule, self.original)

    def next_learnt_id(self, arity):
        """A fresh id; ids of rules loaded from a learnt file are skipped."""
        while True:
            self._learn_counter += 1
            rule_id = "*%s%d" % ("unary" if arity == 1 else "binary", self._learn_counter)
            if rule_id not in self._by_id:
                return rule_id

    def add_learnt(self, rule, support=None):
        """The first rule that covers `rule`: the existing non-super rule
        that subsumes it, or else `rule` itself, stored with its support
        record if given.  A stored rule's id must be free (next_learnt_id
        draws only free ids); a taken one raises GrammarError."""
        subsumer = self.subsumer_of(rule)
        if subsumer is not None:
            return subsumer
        self._add(rule, self.learnt)
        if support is not None:
            self.support[rule.id] = support
        return rule

    def remove_learnt(self, rule_id):
        rule = self._by_id.pop(rule_id)
        self.learnt.remove(rule)
        self.support.pop(rule_id, None)

    def replace_learnt(self, rule_id, new_rule):
        """Put new_rule in rule_id's place; its support record stays."""
        idx = self.learnt.index(self._by_id[rule_id])
        self.learnt[idx] = new_rule
        self._by_id[rule_id] = new_rule

    def subsumer_of(self, rule):
        """The first rule, original then learnt, that covers `rule`: one
        `_covers` lookup per rule of its arity."""
        for existing in self.rules:
            if rule_subsumes(existing, rule):
                return existing
        return None

    # -- persistence ----------------------------------------------------------

    def save_learnt(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("# learnt rules\n")
            for rule in self.learnt:
                f.write(format_rule(rule, self.registry) + "\n")

    def load_rules(self, path, origin=ORIGINAL):
        """Add every rule of a file, or none: all lines are parsed and all
        ids checked before the first rule is added."""
        rules = [parse_rule_line(line, self.registry, origin) for line in data_lines(path)]
        ids = set(self._by_id)
        for rule in rules:
            if rule.id in ids:
                raise GrammarError("duplicate rule id %r" % rule.id)
            ids.add(rule.id)
        for rule in rules:
            self._add(rule, self.original if origin == ORIGINAL else self.learnt)


def format_rule(rule, registry=None):
    """One 'LHS -> RHS...' alternative per instance, separated by '|'; each
    alternative is its own tag scope."""
    alternatives = [_alternative(inst, rule.arity, registry) for inst in rule.instances]
    return "rule %s : %s" % (rule.id, " | ".join(alternatives))


@functools.cache
def _alternative(inst, arity, registry):
    """The 'LHS -> RHS...' text of one instance; a registry is an interned
    value, so each registry's orders get entries of their own."""
    feats = [LHS] + [slot(i) for i in range(1, arity + 1)]
    parts = fsmod.print_parts(inst, feats, registry)
    return "%s -> %s" % (parts[LHS], " ".join(parts[f] for f in feats[1:]))


def parse_rule_line(line, registry, origin=ORIGINAL):
    """The rule of a line: the instances of its '|' alternatives in order,
    which must share one arity."""
    if not line.startswith("rule "):
        raise MalformedSyntax("rule lines start with 'rule': %r" % line)
    head, _, body = line[5:].partition(":")
    name = head.strip()
    if not name:
        raise MalformedSyntax("rule needs a name: %r" % line)
    arities = set()
    instances = []
    for text in body.split("|"):
        arity, found = _parse_alternative(text, registry, line)
        arities.add(arity)
        instances.extend(found)
    if len(arities) > 1:
        raise MalformedSyntax("rule alternatives need one arity: %r" % line)
    return rule_of(name, arity, tuple(instances), origin)


def _parse_alternative(text, registry, line):
    """(arity, instances) of one alternative, its own tag scope."""
    left, arrow, right = text.partition("->")
    if not arrow:
        raise MalformedSyntax("rule needs '->': %r" % line)
    positions = itertools.chain([LHS], map(slot, itertools.count(1)))
    (n_lhs, arity), instances = parse_instances([left, right], positions, registry)
    if n_lhs != 1:
        raise MalformedSyntax("rule needs one LHS category: %r" % line)
    if not arity:
        raise MalformedSyntax("rule needs at least one RHS category: %r" % line)
    if not instances:
        raise GrammarError("rule has an inconsistent category: %r" % line)
    return arity, instances


class Lexicon:
    """Terminal -> feature structures, in file order."""

    def __init__(self, registry):
        self.registry = registry
        self.entries = {}

    def add(self, terminal, fs):
        """Add an entry; one the terminal already holds is kept once."""
        entries = self.entries.setdefault(terminal, [])
        if fs not in entries:
            entries.append(fs)

    @property
    def terminals(self):
        return tuple(self.entries)

    def lexical_categories(self, terminal):
        return tuple(self.entries.get(terminal, ()))

    def lookup_token(self, token):
        """Entries for a token, falling back to its lower-cased form (corpus
        lines capitalize sentence-initial words)."""
        got = self.lexical_categories(token)
        if not got and token.lower() != token:
            got = self.lexical_categories(token.lower())
        return got

    @classmethod
    def load(cls, path, registry):
        lex = cls(registry)
        for line in data_lines(path):
            if not line.startswith("lex "):
                raise MalformedSyntax("lexicon lines start with 'lex': %r" % line)
            head, _, body = line[4:].partition(":")
            words = head.split()
            if len(words) != 1:
                raise MalformedSyntax("lexicon entries need one terminal word: %r" % line)
            cat = parse_fs(body.strip(), registry)
            for d in cat.disjuncts:
                lex.add(words[0], d)
        return lex


class UnknownTerminal(GrammarError):
    pass


class ParaphraseEntry:
    __slots__ = ("pattern", "name", "bar_suffix", "phrasal")

    def __init__(self, pattern, name, bar_suffix=False, phrasal=None):
        self.pattern = pattern  # FS
        self.name = name
        self.bar_suffix = bar_suffix
        self.phrasal = phrasal


class ParaphraseMap:
    """Ordered (pattern, atomic label) pairs for display and normalization."""

    def __init__(self, entries=()):
        self.entries = list(entries)

    def paraphrase(self, d, promote=True):
        """Atomic label for a feature structure; "X" when nothing matches."""
        for entry in self.entries:
            if not fsmod.subsumes(entry.pattern, d):
                continue
            name = entry.name
            bar = bar_of(d)
            if entry.bar_suffix and bar is not None:
                name = "%s%d" % (name, bar)
            if promote and entry.phrasal and bar is not None and bar > 1:
                name = entry.phrasal
            return name
        return "X"

    def paraphrase_cat(self, c, promote=True):
        if c.is_bottom:
            return "⊥"
        labels = []
        for d in c.disjuncts:
            label = self.paraphrase(d, promote)
            if label not in labels:
                labels.append(label)
        if len(labels) == 1:
            return labels[0]
        return "{" + ",".join(labels) + "}"

    def paraphrase_rule(self, rule, promote=False):
        rhs = " ".join(self.paraphrase_cat(rule.rhs(i), promote) for i in range(1, rule.arity + 1))
        return "%s -> %s" % (self.paraphrase_cat(rule.lhs, promote), rhs)

    @classmethod
    def load(cls, path, registry):
        entries = []
        for line in data_lines(path):
            if not line.startswith("label "):
                raise MalformedSyntax("label lines start with 'label': %r" % line)
            body, _, right = line[6:].partition("->")
            if not right:
                raise MalformedSyntax("label line needs '->': %r" % line)
            pattern = parse_fs(body.strip(), registry, pattern=True)
            if len(pattern) != 1:
                raise MalformedSyntax("label patterns are non-disjunctive: %r" % line)
            words = right.strip().split()
            name = words[0]
            bar_suffix = "bar" in words[1:]
            phrasal = None
            if "phrasal" in words[1:]:
                at = words.index("phrasal")
                if at + 1 >= len(words):
                    raise MalformedSyntax("'phrasal' needs a name: %r" % line)
                phrasal = words[at + 1]
            entries.append(ParaphraseEntry(pattern.disjuncts[0], name, bar_suffix, phrasal))
        return cls(entries)


def bar_of(d):
    """Bar level of a structure; a disjoined BAR counts as its highest level."""
    v = d.get(BAR)
    if isinstance(v, str):
        return int(v) if v.isdigit() else None
    if isinstance(v, frozenset):
        digits = [int(x) for x in v if x.isdigit()]
        return max(digits) if digits else None
    return None
