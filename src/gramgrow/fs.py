"""Disjunctive feature structures: parsing, printing, subsumption, unification.

A feature structure is a frozen rooted DAG, stored as a tree of interned
nodes in which a node reached by more than one path carries a tag numbered
within its structure, so tag scoping never leaks between structures.  The
tree is the only form of a structure: unification builds it through a
scratch graph, and so does parsing under a tag, while the parser builds a
value with no tag below it as its node at once; subsumption, matching,
expansion and printing walk the tree.  Equal structures are one object.  A
Category is a finite disjunction of feature structures; the empty
disjunction is the inconsistent category (bottom).
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

_NODES = {}  # (payload, feats, tag) -> the one FS


def _node(payload, feats, tag=0):
    """The one FS with this payload, feats and tag."""
    key = (payload, feats, tag)
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = FS()
        node.payload, node.feats, node.tag = payload, feats, tag
        node.tagged = bool(tag) or any(c.tagged for _, c in feats)
        node.vset = bool(payload and payload & (payload - 1)) or any(c.vset for _, c in feats)
        node.sub = node._rootmap = None
    return node


def _sub(node):
    """The structure under node, as a value of its own: a tag that occurs
    only once below node is dropped and the others are renumbered.  A node
    without tags is that value already."""
    if not node.tagged:
        return node
    hit = node.sub
    if hit is None:
        graph = _Graph()
        hit = node.sub = graph.freeze(graph._loaded(node, {}))
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
        root = self._loaded(fs, {})
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
        root = self.find(root)
        refs = {}
        self._count(root, refs, set())
        return self._build(root, refs, {}, itertools.count(1))

    def _count(self, i, refs, on_path):
        """Count in refs the paths into i and the nodes below it; on_path
        holds the nodes above i."""
        n = refs.get(i)
        if n is not None:
            if i in on_path:
                raise _Bottom()  # cyclic
            refs[i] = n + 1
            return
        refs[i] = 1
        fi = self.feats[i]
        if fi is None:
            if not self.src[i].tagged:
                return  # untouched and tag-free: frozen as it is
            fi = self._expand(i)
        on_path.add(i)
        for child in fi.values():
            self._count(self.find(child), refs, on_path)
        on_path.discard(i)

    def _build(self, i, refs, built, tags):
        """The interned node of i (built: id -> node so far); a node with
        more than one path into it takes the next number of tags."""
        node = built.get(i)
        if node is not None:
            return node
        tag = next(tags) if refs[i] > 1 else 0
        fi = self.feats[i]
        if fi is None:
            node = self.src[i]
            if tag:
                node = _node(node.payload, node.feats, tag)
        else:
            feats = tuple([(f, self._build(self.find(c), refs, built, tags)) for f, c in sorted(fi.items())])
            key = (self.payload[i], feats, tag)
            node = _NODES.get(key) or _node(*key)
        built[i] = node
        return node


class FS:
    """Immutable feature structure: an interned node.

    A node has a payload (None or an atom bitmask), feats (a tuple of
    (feature, child node) pairs in alphabetical feature order) and a tag.
    Its children are nodes too, so equal sub-structures are one object
    wherever they occur.  A node that its structure reaches by more than one
    path carries a tag: its number among the shared nodes, by first visit in
    a DFS that takes features alphabetically (0: not shared).  Sharing stays
    explicit that way, and only `_node` makes an FS, one per (payload,
    feats, tag): equal structures are one object, and `==` and `hash` are
    those of the object.  The table is strong and grows with the distinct
    nodes seen, not with the structures made.

    `tagged` is true when the node or a node below it has a tag, and `vset`
    when the node or a node below it holds a value disjunction (two atoms or
    more).  A child whose tags are numbered by the structure above it is not
    a value of its own: it leaves this module only through `get` and
    `_sub`, which renumber its tags and cache the result in `sub`.
    """

    __slots__ = ("payload", "feats", "tag", "tagged", "vset", "sub", "_rootmap")

    @staticmethod
    def empty():
        return _EMPTY_FS

    # -- structure accessors -------------------------------------------------

    @property
    def root_features(self):
        return tuple(f for f, _ in self.feats)

    def get(self, feature, default=None):
        """Value at a root feature: atom str, frozenset, nested FS, or None for
        an unconstrained shared node."""
        for f, child in self.feats:
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
            self._rootmap = {f: c.payload for f, c in self.feats if c.payload is not None}
        return self._rootmap

    def __repr__(self):
        return "FS(%s)" % print_fs(Category((self,)))


_EMPTY_FS = _node(None, ())


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
    return _subsumes(d, d2, {})


def _subsumes(node, node2, mapping):
    """subsumes on a node of d and its counterpart in d2; mapping: tag in d
    -> the node of d2 it maps to."""
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
        if child2 is None or not _subsumes(child, child2, mapping):
            return False
    return True


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
    payload, feats = p.payload, p.feats
    payload2, feats2 = d.payload, d.feats
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
        elif not matches(child, f2[feat], presence):
            return False
    return True


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
        for feat, child in d.feats:
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


def _first_features(node, first, visited):
    """Fill first with tag -> the feature of the first edge into its node,
    in canonical order: nodes by first visit in a DFS from node that takes
    features alphabetically, and each node's edges alphabetically.  visited
    holds the tags walked."""
    for feat, child in node.feats:
        if child.tag:
            first.setdefault(child.tag, feat)
    for _, child in node.feats:
        if child.tagged and child.tag not in visited:
            if child.tag:
                visited.add(child.tag)
            _first_features(child, first, visited)


def _choices(fs, registry):
    """One list of one-atom masks per value disjunction of fs, in registry
    walk order (a shared one once), the masks in declared value order where
    known.  A shared disjunction takes the value order of the feature of its
    first edge in canonical order."""
    out = []
    _add_choices(fs, "", fs, registry, out, set(), {})
    return out


def _add_choices(node, feat, fs, registry, out, seen, first):
    """_choices's walk from node, reached through feat: seen holds the tags
    walked, and first is filled by _first_features(fs) when first needed."""
    if node.tag:
        if node.tag in seen:
            return
        seen.add(node.tag)
    if node.payload is not None:  # only vset nodes are walked: a value disjunction
        vals = _atoms(node.payload)
        if registry is None:
            vals.sort()
        else:
            if node.tag:
                if not first:
                    _first_features(fs, first, set())
                feat = first[node.tag]
            vals.sort(key=lambda v: registry.value_key(feat, v))
        out.append([_BITS[v] for v in vals])
    for f, child in _in_order(node.feats, registry):
        if child.vset:
            _add_choices(child, f, fs, registry, out, seen, first)


def _resolved(node, registry, values, done):
    """node with its value disjunctions set, in `_choices`'s walk order, to
    the next items of the iterator values; done maps a tag to its new node.
    Only the nodes on paths to them are made anew; the shape stays, so every
    tag keeps its number."""
    hit = done.get(node.tag)
    if hit is not None:
        return hit
    if node.feats:
        walked = _in_order(node.feats, registry)
        new = {f: _resolved(c, registry, values, done) for f, c in walked if c.vset}
        hit = _node(None, tuple([(f, new.get(f, c)) for f, c in node.feats]), node.tag)
    else:
        hit = _node(next(values), (), node.tag)
    if node.tag:
        done[node.tag] = hit
    return hit


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
        if not d.vset:
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
            out.append(_resolved(d, registry, iter(combo), {}))
    if cap is not None and total > cap and on_cap is not None:
        on_cap(total)
    return out


# -- concrete syntax ---------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lbrack>\[)|(?P<rbrack>\])|(?P<lbrace>\{)|(?P<rbrace>\})"
    r"|(?P<comma>,)|(?P<eq>=)|(?P<tag>#\d+)|(?P<bottom>⊥)"
    r"|(?P<atom>[A-Za-z0-9_+\-$'*][A-Za-z0-9_+\-$'*]*)|(?P<bad>\S[\s\S]*))"
)

_END = (None, None)  # the token after the last one


def _tokenize(text):
    """The (kind, text) tokens of text, then _END."""
    tokens = [(m.lastgroup, m[m.lastgroup]) for m in _TOKEN_RE.finditer(text)]
    if tokens and tokens[-1][0] == "bad":
        raise MalformedSyntax("cannot tokenize %r" % tokens[-1][1].rstrip()[:20])
    tokens.append(_END)
    return tokens


class _Parser:
    """Reads categories into interned nodes.  A value with no tag below it
    is built as its node at once; only a tag, or a structure with a tag
    below it, is a node id of the scratch graph, which `category` freezes."""

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
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind and tok[0] != kind:
            raise MalformedSyntax("expected %s, got %r" % (kind, tok[1]))
        self.i += 1
        return tok

    def node_id(self, value):
        """The graph id of a value: a node enters as a loaded one."""
        return value if type(value) is int else self.graph._loaded(value, None)

    def category(self):
        """The next category, frozen at once, and its disjuncts' values."""
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
            return Category([self.graph.freeze(r) if type(r) is int else r for r in roots]), roots
        except _Bottom:
            raise MalformedSyntax("a tag is bound to clashing or cyclic values") from None

    def _scoped_fs(self):
        if not self.shared:
            self.tags = {}
        return self.fs()

    def fs(self):
        self.take("lbrack")
        feats = {}
        if self.peek()[0] != "rbrack":
            while True:
                feat = self.take("atom")[1].upper()
                if self.registry is not None:
                    self.registry.check(feat)
                if feat in feats:
                    raise MalformedSyntax("duplicate feature %r" % feat)
                feats[feat] = self.value(feat)
                if self.peek()[0] != "comma":
                    break
                self.take()
        self.take("rbrack")
        if int not in map(type, feats.values()):  # no tag below
            return _node(None, tuple(sorted(feats.items())))
        root = self.graph.add()
        self.graph.feats[root] = {f: self.node_id(v) for f, v in feats.items()}
        return root

    def value(self, feat):
        """The next value: its node, or the graph id of one with a tag."""
        kind, text = self.peek()
        if kind == "atom":
            self.take()
            value = text.upper()
            if value == WILDCARD and not self.pattern:
                raise UndeclaredValue("wildcard only allowed in patterns")
            if self.registry is not None:
                self.registry.check(feat, value)
            return _node(_mask((value,)), ())
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
            return _node(_mask(values), ())
        if kind == "lbrack":
            return self.fs()
        if kind == "tag":
            self.take()
            node = self.tags.get(text)
            if node is None:
                node = self.tags[text] = self.graph.add()
            if self.peek()[0] == "eq":
                self.take()
                self.graph.merge(node, self.node_id(self.value(feat)))
            return node
        raise MalformedSyntax("expected a value, got %r" % (text,))


def parse_fs(text, registry=None, pattern=False):
    """Parse one category literal; each disjunct is its own tag scope."""
    parser = _Parser(text, registry, pattern, shared=False)
    cat, _ = parser.category()
    if parser.peek() is not _END:
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
        while parser.peek() is not _END:
            cat, values = parser.category()
            groups[-1].append(cat)
            roots.append(values)
    cats = groups[0] if isinstance(text, str) else groups
    if joint is None:
        return cats
    if any(len(values) != 1 for values in roots):
        return cats, None
    graph = parser.graph
    top = graph.add()
    graph.feats[top].update(zip(joint, (parser.node_id(values[0]) for values in roots)))
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
        out = []
        self._emit(root, "", {} if tagno is None else tagno, out)
        return "".join(out)

    def _emit(self, node, feat_ctx, tagno, out):
        """Append to out the text of node, the value of feature feat_ctx."""
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
                self._emit(child, feat, tagno, out)
            out.append("]")

    def cat_text(self, cat):
        if cat.is_bottom:
            return "⊥"
        texts = [self.fs_text(d) for d in cat.disjuncts]
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
    roots = dict(fs.feats)
    out = {}
    for feat in part_features:
        node = roots.get(feat)
        out[feat] = "[]" if node is None else printer.fs_text(node, tagno)
    return out
