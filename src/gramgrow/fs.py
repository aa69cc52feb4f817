"""Disjunctive feature structures: parsing, printing, subsumption, unification.

A feature structure is stored as a frozen rooted DAG.  Reentrancy is plain
node sharing, so tag scoping never leaks between structures: tags exist only
in the text form.  A Category is a finite disjunction of feature structures;
the empty disjunction is the inconsistent category (bottom).
"""

from __future__ import annotations

import itertools
import re


class FSError(ValueError):
    pass


class UndeclaredFeature(FSError):
    pass


class UndeclaredValue(FSError):
    pass


class MalformedSyntax(FSError):
    pass


class ExpansionCapHit(FSError):
    """Raised when expanding a disjunction would exceed the configured cap."""


WILDCARD = "*"

DEFAULT_EXPANSION_CAP = 64


class FeatureRegistry:
    """The fixed feature inventory and the finite value set of each feature."""

    def __init__(self):
        self._values = {}  # feature -> tuple of values, declaration order
        self._order = {}  # feature -> declaration index

    def declare(self, feature, values):
        feature = feature.upper()
        values = tuple(v.upper() for v in values)
        if not values:
            raise FSError("feature %r needs a non-empty value set" % feature)
        if feature in self._values:
            merged = list(self._values[feature])
            merged.extend(v for v in values if v not in merged)
            self._values[feature] = tuple(merged)
        else:
            self._order[feature] = len(self._order)
            self._values[feature] = values

    @property
    def features(self):
        return tuple(self._order)

    def has_feature(self, feature):
        return feature in self._values

    def values_of(self, feature):
        return self._values[feature]

    def feature_key(self, feature):
        # unknown features (internal wrappers) sort after declared ones
        return (0, self._order[feature]) if feature in self._order else (1, feature)

    def value_key(self, feature, value):
        vals = self._values.get(feature)
        if vals and value in vals:
            return (0, vals.index(value))
        return (1, value)

    def check(self, feature, value=None):
        if feature not in self._values:
            raise UndeclaredFeature("undeclared feature %r" % feature)
        if value is not None and value != WILDCARD and value not in self._values[feature]:
            raise UndeclaredValue("value %r not declared for feature %r" % (value, feature))

    @classmethod
    def from_text(cls, text):
        reg = cls()
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "feature" or len(parts) < 3:
                raise MalformedSyntax("bad registry line: %r" % line)
            reg.declare(parts[1], parts[2:])
        return reg

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_text(f.read())


class _MNode:
    """Mutable node used while building or unifying."""

    __slots__ = ("atom", "vset", "feats", "link")

    def __init__(self, atom=None, vset=None):
        self.atom = atom
        self.vset = vset
        self.feats = {}
        self.link = None  # union-find forwarding

    def find(self):
        node = self
        while node.link is not None:
            node = node.link
        # path compression
        walk = self
        while walk.link is not None:
            nxt = walk.link
            walk.link = node
            walk = nxt
        return node


class _Bottom(Exception):
    pass


class FS:
    """Immutable feature structure.

    Nodes are numbered canonically (first visit in a DFS that orders features
    alphabetically), node 0 is the root.  Each node is (payload, feats) where
    payload is None, an atom, or a frozenset of atoms (value disjunction), and
    feats is a tuple of (feature, child index) pairs.
    """

    __slots__ = ("_nodes", "_hash", "_subs", "_rootmap")

    def __init__(self, nodes):
        self._nodes = nodes
        self._hash = hash(nodes)
        self._subs = None
        self._rootmap = None

    @staticmethod
    def empty():
        return _EMPTY_FS

    @classmethod
    def from_mutable(cls, root):
        index = {}
        order = []
        on_path = set()

        def visit(node):
            node = node.find()
            if id(node) in on_path:
                raise _Bottom()  # cyclic
            if id(node) in index:
                return
            index[id(node)] = len(order)
            order.append(node)
            on_path.add(id(node))
            for feat in sorted(node.feats):
                visit(node.feats[feat])
            on_path.discard(id(node))

        visit(root)
        nodes = []
        for node in order:
            payload = node.atom if node.atom is not None else node.vset
            feats = tuple(sorted((f, index[id(c.find())]) for f, c in node.feats.items()))
            nodes.append((payload, feats))
        return cls(tuple(nodes))

    def to_mutable(self):
        made = [None] * len(self._nodes)
        for i in range(len(self._nodes) - 1, -1, -1):
            payload, feats = self._nodes[i]
            node = _MNode()
            if isinstance(payload, str):
                node.atom = payload
            elif payload is not None:
                node.vset = payload
            made[i] = node
        for i, (_, feats) in enumerate(self._nodes):
            for feat, child in feats:
                made[i].feats[feat] = made[child]
        return made[0]

    # -- structure accessors -------------------------------------------------

    @property
    def root_features(self):
        return tuple(f for f, _ in self._nodes[0][1])

    def get(self, feature, default=None):
        """Value at a root feature: atom str, frozenset, nested FS, or None for
        an unconstrained shared node."""
        for f, child in self._nodes[0][1]:
            if f == feature:
                return self._value_at(child)
        return default

    def _value_at(self, idx):
        payload, feats = self._nodes[idx]
        if isinstance(payload, str):
            return payload
        if payload is not None:
            return payload
        if feats:
            return self._sub_fs(idx)
        return None

    def _sub_fs(self, idx):
        # stored feats are in feature order, so numbering by first visit is
        # the canonical numbering of the sub-structure
        if self._subs is None:
            self._subs = {}
        hit = self._subs.get(idx)
        if hit is None:
            index = {}

            def visit(i):
                if i not in index:
                    index[i] = len(index)
                    for _, child in self._nodes[i][1]:
                        visit(child)

            visit(idx)
            hit = FS(tuple(
                (self._nodes[i][0], tuple((f, index[c]) for f, c in self._nodes[i][1]))
                for i in index
            ))
            self._subs[idx] = hit
        return hit

    def root_atoms(self):
        """Root features with atomic or value-set payloads, for cheap
        incompatibility checks."""
        if self._rootmap is None:
            out = {}
            for feat, child in self._nodes[0][1]:
                payload = self._nodes[child][0]
                if payload is not None:
                    out[feat] = payload
            self._rootmap = out
        return self._rootmap

    def is_empty(self):
        return self is _EMPTY_FS or self._nodes == _EMPTY_FS._nodes

    def __eq__(self, other):
        return isinstance(other, FS) and self._nodes == other._nodes

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FS(%s)" % print_fs(Category((self,)))


_EMPTY_FS = FS(((None, ()),))


class Category:
    """A finite disjunction of feature structures; () is bottom."""

    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts=()):
        self.disjuncts = tuple(disjuncts)

    @property
    def is_bottom(self):
        return not self.disjuncts

    def __eq__(self, other):
        return isinstance(other, Category) and self.disjuncts == other.disjuncts

    def __hash__(self):
        return hash(self.disjuncts)

    def __iter__(self):
        return iter(self.disjuncts)

    def __len__(self):
        return len(self.disjuncts)

    def __repr__(self):
        return "Category(%s)" % print_fs(self)


BOTTOM = Category(())
EMPTY_CAT = Category((_EMPTY_FS,))


def fs_from_pairs(pairs):
    """Build a flat FS from (feature, value) pairs; values may be atoms,
    iterables of atoms, or FS."""
    root = _MNode()
    for feature, value in pairs:
        node = _MNode()
        if isinstance(value, FS):
            node = value.to_mutable()
        elif isinstance(value, str):
            node.atom = value
        elif value is not None:
            vs = frozenset(value)
            if len(vs) == 1:
                node.atom = next(iter(vs))
            else:
                node.vset = vs
        root.feats[feature.upper()] = node
    return FS.from_mutable(root)


# -- subsumption -----------------------------------------------------------


def subsumes(d, d2):
    """True iff d is at most as informative as d2 (d generalizes d2)."""
    mapping = {}

    def rec(i, j):
        if i in mapping:
            return mapping[i] == j
        mapping[i] = j
        payload, feats = d._nodes[i]
        payload2, feats2 = d2._nodes[j]
        if isinstance(payload, str):
            if payload != payload2:
                return False
        elif payload is not None:  # value set
            if isinstance(payload2, str):
                if payload2 not in payload:
                    return False
            elif payload2 is not None:
                if not payload2 <= payload:
                    return False
            else:
                return False
        f2 = dict(feats2)
        for feat, child in feats:
            if feat not in f2:
                return False
            if not rec(child, f2[feat]):
                return False
        return True

    return rec(0, 0)


def equal(d, d2):
    """Mutual subsumption; coincides with structural equality of the canonical
    graphs."""
    return d == d2 or (subsumes(d, d2) and subsumes(d2, d))


def subsumes_cat(c, c2):
    """Category-level coverage: every expansion of c2 lies under some
    expansion of c (denotational reading, so value disjunctions and
    category disjunctions compare alike)."""
    if c2.is_bottom:
        return True
    if c.is_bottom:
        return False
    if all(any(subsumes(a, b) for a in c.disjuncts) for b in c2.disjuncts):
        return True  # disjunct-level cover implies the denotational one
    exps = expand(c, cap=None)
    return all(any(subsumes(a, b) for a in exps) for b in expand(c2, cap=None))


def equal_cat(c, c2):
    return subsumes_cat(c, c2) and subsumes_cat(c2, c)


# -- unification -----------------------------------------------------------


def _merge(a, b, pending):
    a = a.find()
    b = b.find()
    if a is b:
        return
    b.link = a
    # payload combination
    if b.atom is not None:
        if a.atom is not None:
            if a.atom != b.atom:
                raise _Bottom()
        elif a.vset is not None:
            if b.atom not in a.vset:
                raise _Bottom()
            a.atom, a.vset = b.atom, None
        else:
            a.atom = b.atom
    elif b.vset is not None:
        if a.atom is not None:
            if a.atom not in b.vset:
                raise _Bottom()
        elif a.vset is not None:
            inter = a.vset & b.vset
            if not inter:
                raise _Bottom()
            if len(inter) == 1:
                a.atom, a.vset = next(iter(inter)), None
            else:
                a.vset = inter
        else:
            a.vset = b.vset
    if (a.atom is not None or a.vset is not None) and (a.feats or b.feats):
        raise _Bottom()
    for feat, child in b.feats.items():
        if feat in a.feats:
            pending.append((a.feats[feat], child))
        else:
            a.feats[feat] = child
    b.feats = {}


def clashes(d, d2):
    """Cheap sound incompatibility test on root-level payloads (a True result
    guarantees unification failure; False guarantees nothing)."""
    a = d.root_atoms()
    b = d2.root_atoms()
    if len(b) < len(a):
        a, b = b, a
    for feat, pa in a.items():
        pb = b.get(feat)
        if pb is None:
            continue
        if isinstance(pa, str):
            if isinstance(pb, str):
                if pa != pb:
                    return True
            elif pa not in pb:
                return True
        elif isinstance(pb, str):
            if pb not in pa:
                return True
        elif not (pa & pb):
            return True
    return False


def unify(d, d2):
    """Least upper bound of two feature structures, or None on inconsistency
    (including a would-be cyclic result)."""
    if clashes(d, d2):
        return None
    r1 = d.to_mutable()
    r2 = d2.to_mutable()
    pending = [(r1, r2)]
    try:
        while pending:
            a, b = pending.pop()
            _merge(a, b, pending)
        return FS.from_mutable(r1)
    except _Bottom:
        return None


def unify_cat(c, c2):
    """Disjunctive unification: pairwise cross product with bottoms dropped."""
    out = []
    for a in c.disjuncts:
        for b in c2.disjuncts:
            r = unify(a, b)
            if r is not None:
                out.append(r)
    return simplify(Category(out))


def simplify(c):
    """Drop disjuncts absorbed by a more general disjunct (and duplicates)."""
    kept = []
    for i, d in enumerate(c.disjuncts):
        absorbed = False
        for j, e in enumerate(c.disjuncts):
            if i == j:
                continue
            if subsumes(e, d):
                if subsumes(d, e) and i < j:
                    continue  # mutually equal: the first occurrence survives
                absorbed = True
                break
        if not absorbed and not any(o == d for o in kept):
            kept.append(d)
    return Category(kept)


# -- expansion ---------------------------------------------------------------


def _vset_nodes(fs, registry):
    """Value-disjunction node ids in deterministic (registry) walk order."""
    order = []
    seen = set()

    def key(feat):
        return registry.feature_key(feat) if registry else (0, feat)

    def rec(idx):
        if idx in seen:
            return
        seen.add(idx)
        payload, feats = fs._nodes[idx]
        if payload is not None and not isinstance(payload, str):
            order.append(idx)
        for feat, child in sorted(feats, key=lambda fc: key(fc[0])):
            rec(child)

    rec(0)
    return order


def expand_fs(fs, registry=None, cap=DEFAULT_EXPANSION_CAP, on_cap=None):
    """All non-disjunctive images of fs (each value disjunction resolved).

    If the fan-out exceeds cap, the enumerated prefix is returned and on_cap
    (if given) is called with the true fan-out; with no handler the cap raises.
    """
    sites = _vset_nodes(fs, registry)
    if not sites:
        return [fs]
    choice_lists = []
    for idx in sites:
        vals = fs._nodes[idx][0]
        if registry is not None:
            # deterministic order: declared value order where known
            feat = _feature_of(fs, idx)
            vals = sorted(vals, key=lambda v: registry.value_key(feat, v))
        else:
            vals = sorted(vals)
        choice_lists.append(vals)
    total = 1
    for vals in choice_lists:
        total *= len(vals)
    if cap is not None and total > cap:
        if on_cap is None:
            raise ExpansionCapHit("expansion fan-out %d exceeds cap %d" % (total, cap))
        on_cap(total)
    out = []
    for combo in itertools.product(*choice_lists):
        # payload nodes have no feats, so the numbering stays canonical
        nodes = list(fs._nodes)
        for idx, value in zip(sites, combo):
            nodes[idx] = (value, ())
        out.append(FS(tuple(nodes)))
        if cap is not None and len(out) >= cap:
            break
    return out


def _feature_of(fs, idx):
    for _, feats in fs._nodes:
        for feat, child in feats:
            if child == idx:
                return feat
    return ""


def expand(c, registry=None, cap=DEFAULT_EXPANSION_CAP, on_cap=None):
    """Category expansion: disjunct order first, then internal disjunctions."""
    out = []
    for d in c.disjuncts:
        room = None if cap is None else max(1, cap - len(out))
        out.extend(expand_fs(d, registry, room, on_cap))
        if cap is not None and len(out) >= cap:
            break
    return out


# -- concrete syntax ---------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lbrack>\[)|(?P<rbrack>\])|(?P<lbrace>\{)|(?P<rbrace>\})"
    r"|(?P<comma>,)|(?P<eq>=)|(?P<tag>#\d+)|(?P<bottom>⊥)"
    r"|(?P<atom>[A-Za-z0-9_+\-$'*][A-Za-z0-9_+\-$'*]*))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise MalformedSyntax("cannot tokenize %r" % rest[:20])
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


class _Parser:
    def __init__(self, tokens, registry, pattern, tags):
        self.tokens = tokens
        self.i = 0
        self.registry = registry
        self.pattern = pattern
        # tag text -> _MNode; an externally supplied dict widens the scope to
        # a whole rule line, otherwise each disjunct is its own scope
        self.shared_tags = tags
        self.tags = tags if tags is not None else {}

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self, kind=None):
        tok = self.peek()
        if tok[0] is None or (kind and tok[0] != kind):
            raise MalformedSyntax("expected %s, got %r" % (kind or "token", tok[1]))
        self.i += 1
        return tok

    def category(self):
        kind, _ = self.peek()
        if kind == "bottom":
            self.take()
            return BOTTOM
        try:
            if kind == "lbrace":
                self.take()
                disjuncts = [self._scoped_fs()]
                while self.peek()[0] == "comma":
                    self.take()
                    disjuncts.append(self._scoped_fs())
                self.take("rbrace")
                return Category([FS.from_mutable(d) for d in disjuncts])
            return Category([FS.from_mutable(self._scoped_fs())])
        except _Bottom:
            raise MalformedSyntax("a tag is bound to clashing or cyclic values") from None

    def _scoped_fs(self):
        if self.shared_tags is None:
            self.tags = {}
        return self.fs()

    def fs(self):
        self.take("lbrack")
        root = _MNode()
        if self.peek()[0] == "rbrack":
            self.take()
            return root
        while True:
            feat = self.take("atom")[1].upper()
            if self.registry is not None:
                self.registry.check(feat)
            if feat in root.feats:
                raise MalformedSyntax("duplicate feature %r" % feat)
            root.feats[feat] = self.value(feat)
            if self.peek()[0] == "comma":
                self.take()
                continue
            break
        self.take("rbrack")
        return root

    def value(self, feat):
        kind, text = self.peek()
        if kind == "atom":
            self.take()
            value = text.upper()
            if value == WILDCARD and not self.pattern:
                raise UndeclaredValue("wildcard only allowed in patterns")
            if self.registry is not None:
                self.registry.check(feat, value)
            node = _MNode()
            node.atom = value
            return node
        if kind == "lbrace":
            self.take()
            values = [self.take("atom")[1].upper()]
            while self.peek()[0] == "comma":
                self.take()
                values.append(self.take("atom")[1].upper())
            self.take("rbrace")
            if self.registry is not None:
                for v in values:
                    self.registry.check(feat, v)
            node = _MNode()
            vs = frozenset(values)
            if len(vs) == 1:
                import warnings

                warnings.warn("singleton value disjunction collapsed to %r" % values[0])
                node.atom = next(iter(vs))
            else:
                node.vset = vs
            return node
        if kind == "lbrack":
            return self.fs()
        if kind == "tag":
            self.take()
            node = self.tags.setdefault(text, _MNode())
            if self.peek()[0] == "eq":
                self.take()
                content = self.value(feat)
                pending = [(node, content)]
                while pending:
                    a, b = pending.pop()
                    _merge(a, b, pending)
            return node
        raise MalformedSyntax("expected a value, got %r" % (text,))


def parse_fs(text, registry=None, pattern=False, tags=None):
    """Parse a category literal.  A shared `tags` dict extends tag scope over
    several calls (used for whole rule lines)."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, registry, pattern, tags)
    cat = parser.category()
    if parser.i != len(tokens):
        raise MalformedSyntax("trailing input after category: %r" % (tokens[parser.i][1],))
    return cat


class _Printer:
    """Prints graph portions with one shared tag numbering."""

    def __init__(self, registry, tag_start=0):
        self.registry = registry
        self.next_tag = tag_start + 1

    def _key(self, feat):
        return self.registry.feature_key(feat) if self.registry else (0, feat)

    def _vkey(self, feat, value):
        return self.registry.value_key(feat, value) if self.registry else (0, value)

    def fs_text(self, fs, root=0, shared=None, tagno=None):
        if shared is None:
            shared = _shared_nodes(fs)
        if tagno is None:
            tagno = {}
        out = []

        def emit(idx, feat_ctx):
            payload, feats = fs._nodes[idx]
            if idx in shared:
                if idx in tagno:
                    out.append("#%d" % tagno[idx])
                    return
                tagno[idx] = self.next_tag
                self.next_tag += 1
                out.append("#%d" % tagno[idx])
                if payload is None and not feats:
                    return
                out.append("=")
            if isinstance(payload, str):
                out.append(payload)
            elif payload is not None:
                vals = sorted(payload, key=lambda v: self._vkey(feat_ctx, v))
                out.append("{" + ", ".join(vals) + "}")
            else:
                out.append("[")
                first = True
                for feat, child in sorted(feats, key=lambda fc: self._key(fc[0])):
                    if not first:
                        out.append(", ")
                    first = False
                    out.append(feat + " ")
                    emit(child, feat)
                out.append("]")

        payload, feats = fs._nodes[root]
        if payload is None and not feats and root not in shared:
            return "[]"
        emit(root, "")
        return "".join(out)

    def cat_text(self, cat):
        if cat.is_bottom:
            return "⊥"
        texts = [self.fs_text(d) for d in cat.disjuncts]
        if len(texts) == 1:
            return texts[0]
        return "{" + ", ".join(texts) + "}"


def print_fs(cat, registry=None, tag_start=0):
    if isinstance(cat, FS):
        cat = Category((cat,))
    return _Printer(registry, tag_start).cat_text(cat)


def print_parts(fs, part_features, registry=None):
    """Print the subgraphs under the given root features of one structure,
    with sharing between the parts surfaced as common tags."""
    printer = _Printer(registry)
    shared = _shared_nodes(fs)
    tagno = {}
    roots = dict(fs._nodes[0][1])
    out = {}
    for feat in part_features:
        idx = roots.get(feat)
        if idx is None:
            out[feat] = "[]"
        else:
            out[feat] = printer.fs_text(fs, idx, shared, tagno)
    return out


def _shared_nodes(fs):
    counts = {}
    # count incoming references along all feature edges
    for i, (_, feats) in enumerate(fs._nodes):
        for _, child in feats:
            counts[child] = counts.get(child, 0) + 1
    return {i for i, n in counts.items() if n > 1}
