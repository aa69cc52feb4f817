"""Disjunctive feature structures: parsing, printing, subsumption, unification.

A feature structure is a frozen rooted DAG, stored as a tree of interned
nodes in which a node reached by more than one path carries a tag numbered
within its structure, so tag scoping never leaks between structures.  The
tree is the only form of a structure: parsing and unification build it
through a scratch graph, and subsumption, matching, expansion and printing
walk it.  Equal structures are one object.  A Category is a finite
disjunction of feature structures; the empty disjunction is the
inconsistent category (bottom).
"""

from __future__ import annotations

import functools
import itertools
import re
import warnings


class FSError(ValueError):
    pass


class UndeclaredFeature(FSError):
    pass


class UndeclaredValue(FSError):
    pass


class MalformedSyntax(FSError):
    pass


WILDCARD = "*"

DEFAULT_EXPANSION_CAP = 64


class FeatureRegistry:
    """The fixed feature inventory and the finite value set of each feature.

    A registry is an interned value: `from_text` gives one object per list
    of declarations, in declaration order, so `==` and `hash` are those of
    the object and a registry can key a process-wide memo.
    """

    def __init__(self, declarations):
        self._values = dict(declarations)  # feature -> tuple of values, declaration order
        self._order = {feature: i for i, feature in enumerate(self._values)}

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
        """The registry of 'feature NAME VALUE...' lines; a feature declared
        again gains the values it lacks."""
        values = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "feature" or len(parts) < 3:
                raise MalformedSyntax("bad registry line: %r" % line)
            feature = parts[1].upper()
            declared = tuple(v.upper() for v in parts[2:])
            if feature in values:
                merged = list(values[feature])
                merged.extend(v for v in declared if v not in merged)
                declared = tuple(merged)
            values[feature] = declared
        return _registry(tuple(values.items()))

    @classmethod
    def load(cls, path):
        return cls.from_text(read_text(path))


@functools.cache
def _registry(declarations):
    """The one registry of a tuple of (feature, values) declarations."""
    return FeatureRegistry(declarations)


def read_text(path):
    """The text of a resource file; a file that is not UTF-8 is malformed."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as err:
        raise MalformedSyntax("%s is not UTF-8 text: %s" % (path, err)) from None


# Atoms are interned once per process, not per feature or registry: a tag can
# join nodes reached through different features, so a bit must name the same
# atom everywhere.  Bits follow first sight, so output never reads bit order.
_BITS = {}  # atom -> one-bit mask
_ATOMS = []  # bit position -> atom


def _mask(atoms):
    """The payload for the given atoms: None for none, else a bitmask."""
    mask = 0
    for atom in atoms:
        bit = _BITS.get(atom)
        if bit is None:
            bit = _BITS[atom] = 1 << len(_ATOMS)
            _ATOMS.append(atom)
        mask |= bit
    return mask or None


def _atoms(mask):
    """The atoms of a payload mask, in bit order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(_ATOMS[low.bit_length() - 1])
        mask ^= low
    return out


_WILD = _mask((WILDCARD,))

# Nodes are interned once per process too.  A node's children are the child
# node objects themselves, so equal sub-structures are one object wherever
# they occur, and a memo keyed by structures finds its entry by identity.  A
# node that its structure reaches by more than one path carries a tag: its
# number among the shared nodes, by first visit in a DFS that takes features
# alphabetically (0: not shared).  Sharing stays explicit that way, so equal
# structures are one node and identity is equality.  The table is strong and
# grows with the distinct nodes seen, not with the structures made.
class _Node:
    """An interned node: payload (None or an atom bitmask), feats (a tuple of
    (feature, child node) pairs in alphabetical feature order) and tag.
    `tagged` is true when the node or a node below it has a tag, and `vset`
    when the node or a node below it holds a value disjunction (two atoms or
    more).  `fs` is the structure rooted here, and `sub` the one rooted here
    with its tags renumbered within it, each made on first use."""

    __slots__ = ("payload", "feats", "tag", "tagged", "vset", "fs", "sub")


_NODES = {}  # (payload, feats, tag) -> the one _Node


def _node(payload, feats, tag=0):
    key = (payload, feats, tag)
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = _Node()
        node.payload, node.feats, node.tag = payload, feats, tag
        node.tagged = bool(tag) or any(c.tagged for _, c in feats)
        node.vset = bool(payload and payload & (payload - 1)) or any(c.vset for _, c in feats)
        node.fs = node.sub = None
    return node


def _fs(root):
    """The one FS rooted at the node root."""
    fs = root.fs
    if fs is None:
        fs = root.fs = FS(root)
    return fs


def _sub(node):
    """The structure under node, as a value of its own: a tag that occurs
    only once below node is dropped and the others are renumbered."""
    hit = node.sub
    if hit is None:
        if node.tagged:
            graph = _Graph()
            hit = graph.freeze(graph._loaded(node, {}))
        else:
            hit = _fs(node)
        node.sub = hit
    return hit


class _Bottom(Exception):
    pass


class _Graph:
    """Scratch graph for building and unifying structures.

    A node is an id with a payload (None or an atom bitmask), a feature dict
    (feature -> node id) and a union-find link; merged nodes forward to their
    representative, and only `freeze` copies out.  A loaded node keeps its
    source node and gets its feature dict only when `merge` or `freeze`
    needs it, so `freeze` returns an untouched tag-free sub-structure as it
    is, without a walk.
    """

    __slots__ = ("payload", "feats", "link", "src", "scope")

    def __init__(self):
        self.payload = []
        self.feats = []  # None: a loaded node not yet expanded
        self.link = []
        self.src = []  # the source node of a loaded node, else None
        self.scope = []  # tag -> node id, one dict per loaded structure

    def add(self, atoms=()):
        self.payload.append(_mask(atoms))
        self.feats.append({})
        self.link.append(len(self.link))
        self.src.append(None)
        self.scope.append(None)
        return len(self.link) - 1

    def _loaded(self, node, scope):
        i = len(self.link)
        self.payload.append(node.payload)
        self.feats.append(None)
        self.link.append(i)
        self.src.append(node)
        self.scope.append(scope)
        return i

    def _expand(self, i):
        """Give the loaded node i its feature dict; a tagged child becomes
        the one id of its tag in the structure it was loaded from."""
        scope = self.scope[i]
        feats = {}
        for feat, child in self.src[i].feats:
            if child.tag:
                j = scope.get(child.tag)
                if j is None:
                    j = scope[child.tag] = self._loaded(child, scope)
                feats[feat] = j
            else:
                feats[feat] = self._loaded(child, scope)
        self.feats[i] = feats
        return feats

    def load(self, fs):
        """Copy a frozen structure in; returns the id of its root, whose
        feature dict is there to read."""
        root = self._loaded(fs.root, {})
        self._expand(root)
        return root

    def find(self, i):
        link = self.link
        root = i
        while link[root] != root:
            root = link[root]
        while link[i] != root:  # path compression
            link[i], i = root, link[i]
        return root

    def merge(self, i, j):
        """Unify the nodes i and j in place; _Bottom on a clash."""
        payload, feats, link = self.payload, self.feats, self.link
        pending = [(i, j)]
        while pending:
            a, b = pending.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            link[b] = a
            pa, pb = payload[a], payload[b]
            if pb is not None:
                if pa is not None:
                    pb &= pa
                    if not pb:
                        raise _Bottom()
                payload[a] = pb
            fa, fb = feats[a], feats[b]
            if fa is None:
                fa = self._expand(a)
            if fb is None:
                fb = self._expand(b)
            if payload[a] is not None and (fa or fb):
                raise _Bottom()
            for feat, child in fb.items():
                if feat in fa:
                    pending.append((fa[feat], child))
                else:
                    fa[feat] = child

    def freeze(self, root):
        """The FS under root; _Bottom if the graph is cyclic.  One walk
        counts the paths into each node, a second builds the nodes, tagging
        those with more than one path in first-visit order."""
        payload, feats, src, find = self.payload, self.feats, self.src, self.find
        refs = {}
        on_path = set()

        def count(i):
            n = refs.get(i)
            if n is not None:
                if i in on_path:
                    raise _Bottom()  # cyclic
                refs[i] = n + 1
                return
            refs[i] = 1
            fi = feats[i]
            if fi is None:
                if not src[i].tagged:
                    return  # untouched and tag-free: frozen as it is
                fi = self._expand(i)
            on_path.add(i)
            for child in fi.values():
                count(find(child))
            on_path.discard(i)

        nodes = _NODES
        built = {}
        tags = [0]

        def build(i):
            node = built.get(i)
            if node is not None:
                return node
            tag = 0
            if refs[i] > 1:
                tags[0] += 1
                tag = tags[0]
            fi = feats[i]
            if fi is None:
                node = src[i]
                if tag:
                    node = _node(node.payload, node.feats, tag)
            else:
                key = (payload[i], tuple([(f, build(find(c))) for f, c in sorted(fi.items())]), tag)
                node = nodes.get(key) or _node(*key)
            built[i] = node
            return node

        root = find(root)
        count(root)
        return _fs(build(root))


class FS:
    """Immutable feature structure: an interned root node (see _Node).

    Equal structures have the same root node, and only `_fs` makes an FS,
    one per root node, so equal structures are one FS: `==` and `hash` are
    those of the object.
    """

    __slots__ = ("root", "_rootmap")

    def __init__(self, root):
        self.root = root
        self._rootmap = None

    @staticmethod
    def empty():
        return _EMPTY_FS

    # -- structure accessors -------------------------------------------------

    @property
    def root_features(self):
        return tuple(f for f, _ in self.root.feats)

    def get(self, feature, default=None):
        """Value at a root feature: atom str, frozenset, nested FS, or None for
        an unconstrained shared node."""
        for f, child in self.root.feats:
            if f == feature:
                if child.payload is not None:
                    atoms = _atoms(child.payload)
                    return atoms[0] if len(atoms) == 1 else frozenset(atoms)
                if child.feats:
                    return _sub(child)
                return None
        return default

    def root_atoms(self):
        """Root features with atom payloads (masks), for cheap
        incompatibility checks."""
        if self._rootmap is None:
            self._rootmap = {f: c.payload for f, c in self.root.feats if c.payload is not None}
        return self._rootmap

    def __repr__(self):
        return "FS(%s)" % print_fs(Category((self,)))


_EMPTY_FS = _fs(_node(None, ()))


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
    """Build a structure whose root features hold the given FS values."""
    graph = _Graph()
    root = graph.add()
    for feature, value in pairs:
        graph.feats[root][feature.upper()] = graph.load(value)
    return graph.freeze(root)


# -- subsumption -----------------------------------------------------------


def subsumes(d, d2):
    """True iff d is at most as informative as d2 (d generalizes d2)."""
    mapping = {}  # tag in d -> the node of d2 it maps to

    def rec(node, node2):
        if node is node2 and not node.tagged:
            return True
        if node.tag:
            hit = mapping.get(node.tag)
            if hit is not None:
                # the same node of d2 again: one object with a tag
                return hit is node2 and node2.tag != 0
            mapping[node.tag] = node2
        payload, payload2 = node.payload, node2.payload
        if payload is not None and (payload2 is None or payload2 & ~payload):
            return False
        if not node.feats:
            return True
        f2 = dict(node2.feats)
        for feat, child in node.feats:
            child2 = f2.get(feat)
            if child2 is None or not rec(child, child2):
                return False
        return True

    return rec(d.root, d2.root)


def equal(d, d2):
    """Mutual subsumption, which is identity: equal structures are one
    interned object."""
    return d is d2


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


def matches(p, d, presence):
    """Pattern match, path by path: a value of p must share an atom with d's
    value there, and the wildcard accepts any value.  presence=True: every
    feature of p must be present in d; presence=False: absent ones pass."""

    def rec(node, node2):
        payload, feats = node.payload, node.feats
        payload2, feats2 = node2.payload, node2.feats
        if payload is not None:
            if payload == _WILD:
                return True
            return bool(payload & payload2) if payload2 is not None else not feats2
        if not feats:
            return True
        if payload2 is not None:
            return False
        if not feats2:
            return not presence
        f2 = dict(feats2)
        for feat, child in feats:
            if feat not in f2:
                if presence:
                    return False
            elif not rec(child, f2[feat]):
                return False
        return True

    return rec(p.root, d.root)


# -- unification -----------------------------------------------------------


def clashes(d, d2):
    """Cheap sound incompatibility test on root-level payloads (a True result
    guarantees unification failure; False guarantees nothing)."""
    a = d.root_atoms()
    b = d2.root_atoms()
    if len(b) < len(a):
        a, b = b, a
    for feat, pa in a.items():
        pb = b.get(feat)
        if pb is not None and not pa & pb:
            return True
    return False


def unify(d, d2, at=None):
    """Least upper bound of two feature structures, or None on inconsistency
    (including a would-be cyclic result).  With `at`, d2 is unified into the
    value of d's root feature `at` (attached there if d lacks it).

    When one operand subsumes the other, the more specific one is the result
    and is returned as it is, without a copy: subsumption maps every node of
    the general operand, shared nodes included, onto the specific one, so
    unification adds nothing to it."""
    if at is None:
        if clashes(d, d2):
            return None
        if subsumes(d2, d):
            return d
        if subsumes(d, d2):
            return d2
    else:
        for feat, child in d.root.feats:
            if feat == at:
                if subsumes(d2, _sub(child)):
                    return d
                break
    graph = _Graph()
    root = graph.load(d)
    other = graph.load(d2)
    if at is not None:
        wrapper = graph.add()
        graph.feats[wrapper][at] = other
        other = wrapper
    try:
        graph.merge(root, other)
        return graph.freeze(root)
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
    """Drop duplicate disjuncts, the first occurrence staying, then each
    remaining disjunct that another remaining one subsumes.  Distinct
    canonical structures never subsume each other both ways (see equal), so
    no two remaining disjuncts absorb each other."""
    unique = tuple(dict.fromkeys(c.disjuncts))
    return Category([d for d in unique if not any(e is not d and subsumes(e, d) for e in unique)])


# -- expansion ---------------------------------------------------------------


def _in_order(feats, registry):
    """A node's (feature, child) pairs in registry order (alphabetical
    without a registry, as a node keeps them)."""
    if registry is None:
        return feats
    return sorted(feats, key=lambda fc: registry.feature_key(fc[0]))


def _first_features(root):
    """Tag -> the feature of the first edge into its node, in canonical order:
    nodes by first visit in a DFS that takes features alphabetically, and
    each node's edges alphabetically."""
    first = {}
    visited = set()

    def rec(node):
        for feat, child in node.feats:
            if child.tag:
                first.setdefault(child.tag, feat)
        for _, child in node.feats:
            if child.tagged and child.tag not in visited:
                if child.tag:
                    visited.add(child.tag)
                rec(child)

    rec(root)
    return first


def _choices(fs, registry):
    """One list of one-atom masks per value disjunction of fs, in registry
    walk order (a shared one once), the masks in declared value order where
    known.  A shared disjunction takes the value order of the feature of its
    first edge in canonical order."""
    out = []
    seen = set()  # tags walked
    first = None

    def rec(node, feat):
        nonlocal first
        if node.tag:
            if node.tag in seen:
                return
            seen.add(node.tag)
        if node.payload is not None:  # rec sees vset nodes only: a value disjunction
            vals = _atoms(node.payload)
            if registry is None:
                vals.sort()
            else:
                if node.tag:
                    first = first or _first_features(fs.root)
                    feat = first[node.tag]
                vals.sort(key=lambda v: registry.value_key(feat, v))
            out.append([_BITS[v] for v in vals])
        for f, child in _in_order(node.feats, registry):
            if child.vset:
                rec(child, f)

    rec(fs.root, "")
    return out


def _resolved(root, registry, values):
    """root with its value disjunctions set, in `_choices`'s walk order, to
    values.  Only the nodes on paths to them are made anew; the shape stays,
    so every tag keeps its number."""
    values = iter(values)
    done = {}  # tag -> its new node

    def rec(node):
        hit = done.get(node.tag)
        if hit is not None:
            return hit
        if node.feats:
            new = {f: rec(c) for f, c in _in_order(node.feats, registry) if c.vset}
            hit = _node(None, tuple([(f, new.get(f, c)) for f, c in node.feats]), node.tag)
        else:
            hit = _node(next(values), (), node.tag)
        if node.tag:
            done[node.tag] = hit
        return hit

    return rec(root)


def expand(c, registry=None, cap=DEFAULT_EXPANSION_CAP, on_cap=None):
    """The non-disjunctive images of c (each value disjunction resolved), in
    disjunct order, then registry order within a disjunct.

    Only the first cap images are returned (all of them when cap is None).
    When c has more, on_cap (if given) is called once with their number.
    """
    out = []
    total = 0
    for d in c.disjuncts:
        room = None if cap is None else cap - len(out)
        if room == 0 and on_cap is None:
            break
        if not d.root.vset:
            total += 1
            if room != 0:
                out.append(d)
            continue
        choices = _choices(d, registry)
        fanout = 1
        for vals in choices:
            fanout *= len(vals)
        total += fanout
        for combo in itertools.islice(itertools.product(*choices), room):
            out.append(_fs(_resolved(d.root, registry, combo)))
    if cap is not None and total > cap and on_cap is not None:
        on_cap(total)
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
    def __init__(self, text, registry, pattern, shared):
        self.tokens = _tokenize(text)
        self.i = 0
        self.registry = registry
        self.pattern = pattern
        self.graph = _Graph()
        # tag text -> node id; shared: one scope for the whole text, otherwise
        # each disjunct is its own scope
        self.shared = shared
        self.tags = {}

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self, kind=None):
        tok = self.peek()
        if tok[0] is None or (kind and tok[0] != kind):
            raise MalformedSyntax("expected %s, got %r" % (kind or "token", tok[1]))
        self.i += 1
        return tok

    def category(self):
        """The next category, frozen at once, and its disjuncts' node ids."""
        kind, _ = self.peek()
        if kind == "bottom":
            self.take()
            return BOTTOM, ()
        try:
            if kind == "lbrace":
                self.take()
                roots = [self._scoped_fs()]
                while self.peek()[0] == "comma":
                    self.take()
                    roots.append(self._scoped_fs())
                self.take("rbrace")
            else:
                roots = [self._scoped_fs()]
            return Category([self.graph.freeze(r) for r in roots]), roots
        except _Bottom:
            raise MalformedSyntax("a tag is bound to clashing or cyclic values") from None

    def _scoped_fs(self):
        if not self.shared:
            self.tags = {}
        return self.fs()

    def fs(self):
        self.take("lbrack")
        root = self.graph.add()
        if self.peek()[0] == "rbrack":
            self.take()
            return root
        while True:
            feat = self.take("atom")[1].upper()
            if self.registry is not None:
                self.registry.check(feat)
            if feat in self.graph.feats[root]:
                raise MalformedSyntax("duplicate feature %r" % feat)
            self.graph.feats[root][feat] = self.value(feat)
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
            return self.graph.add((value,))
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
            if len(set(values)) == 1:
                warnings.warn("singleton value disjunction collapsed to %r" % values[0])
            return self.graph.add(values)
        if kind == "lbrack":
            return self.fs()
        if kind == "tag":
            self.take()
            node = self.tags.get(text)
            if node is None:
                node = self.tags[text] = self.graph.add()
            if self.peek()[0] == "eq":
                self.take()
                self.graph.merge(node, self.value(feat))
            return node
        raise MalformedSyntax("expected a value, got %r" % (text,))


def parse_fs(text, registry=None, pattern=False):
    """Parse one category literal; each disjunct is its own tag scope."""
    parser = _Parser(text, registry, pattern, shared=False)
    cat, _ = parser.category()
    if parser.i != len(parser.tokens):
        raise MalformedSyntax("trailing input after category: %r" % (parser.peek()[1],))
    return cat


def parse_cats(text, registry=None, joint=None):
    """Parse a sequence of categories, each frozen as soon as it is parsed.

    `text` may also be a list of strings, read one after the other as one
    sequence; the categories then come back as one list per string.  With
    `joint`, an iterable of feature names for the categories in order (names
    past the last category are unused), the whole input is one tag scope,
    and the result is (categories, the structure [joint[0] c0, joint[1] c1,
    ...] frozen last from the same graph), with None for that structure when
    a category is not a single disjunct.
    """
    parser = _Parser("", registry, False, shared=joint is not None)
    groups = []
    roots = []
    for piece in [text] if isinstance(text, str) else text:
        parser.tokens, parser.i = _tokenize(piece), 0
        groups.append([])
        while parser.i < len(parser.tokens):
            cat, ids = parser.category()
            groups[-1].append(cat)
            roots.append(ids)
    cats = groups[0] if isinstance(text, str) else groups
    if joint is None:
        return cats
    if any(len(ids) != 1 for ids in roots):
        return cats, None
    graph = parser.graph
    top = graph.add()
    graph.feats[top].update(zip(joint, (ids[0] for ids in roots)))
    # a cycle runs through a tag of the category that closed it, and that
    # category's freeze has already raised
    return cats, graph.freeze(top)


class _Printer:
    """Prints graph portions with one shared tag numbering."""

    def __init__(self, registry):
        self.registry = registry
        self.next_tag = 1

    def _vkey(self, feat, value):
        return self.registry.value_key(feat, value) if self.registry else (0, value)

    def fs_text(self, root, tagno=None):
        """The text of the structure under the node root.  A tagged node
        prints as its number in tagno (node -> number), given it on first
        print."""
        if tagno is None:
            tagno = {}
        out = []

        def emit(node, feat_ctx):
            payload, feats = node.payload, node.feats
            if node.tag:
                if node in tagno:
                    out.append("#%d" % tagno[node])
                    return
                tagno[node] = self.next_tag
                self.next_tag += 1
                out.append("#%d" % tagno[node])
                if payload is None and not feats:
                    return
                out.append("=")
            if payload is not None:
                vals = sorted(_atoms(payload), key=lambda v: self._vkey(feat_ctx, v))
                out.append(vals[0] if len(vals) == 1 else "{" + ", ".join(vals) + "}")
            else:
                out.append("[")
                first = True
                for feat, child in _in_order(feats, self.registry):
                    if not first:
                        out.append(", ")
                    first = False
                    out.append(feat + " ")
                    emit(child, feat)
                out.append("]")

        emit(root, "")
        return "".join(out)

    def cat_text(self, cat):
        if cat.is_bottom:
            return "⊥"
        texts = [self.fs_text(d.root) for d in cat.disjuncts]
        if len(texts) == 1:
            return texts[0]
        return "{" + ", ".join(texts) + "}"


def print_fs(cat, registry=None):
    if isinstance(cat, FS):
        cat = Category((cat,))
    return _Printer(registry).cat_text(cat)


def print_parts(fs, part_features, registry=None):
    """Print the subgraphs under the given root features of one structure,
    with sharing between the parts surfaced as common tags."""
    printer = _Printer(registry)
    tagno = {}
    roots = dict(fs.root.feats)
    out = {}
    for feat in part_features:
        node = roots.get(feat)
        out[feat] = "[]" if node is None else printer.fs_text(node, tagno)
    return out
