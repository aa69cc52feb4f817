"""Bottom-up active chart parser with super-rule seeding and critic hooks.

Phase one parses with the ordinary grammar.  If that fails and learning is
enabled, the chart is reseeded with super-rule proposals from every inactive
edge; every super-rule instantiation that completes is criticised (redundancy
against the original grammar, the grammaticality model, the rule constructor,
and optionally the treebank judge) and either carries a freshly constructed
rule or is marked bad.  Rules used in extracted parses are retained.
"""

from __future__ import annotations

import itertools
from collections import deque

from .constructor import construct_binary_cat, construct_unary_cat
from .fs import Category, EMPTY_CAT, unify_cat
from .grammar import LHS, SupportRecord, UnknownTerminal, slot, super_rule
from .model import DEFAULT_NONHEAD, criticise_rhs
from . import scoring


class ParserLimits:
    """Resource bounds: n extracted parses, m created edges (None: unlimited)."""

    def __init__(self, max_parses=None, max_edges=None):
        if max_parses is not None and max_parses < 1:
            raise ValueError("max_parses must be >= 1")
        if max_edges is not None and max_edges < 1:
            raise ValueError("max_edges must be >= 1")
        self.max_parses = max_parses
        self.max_edges = max_edges

    @classmethod
    def learning_default(cls):
        return cls(1, 3000)

    def __repr__(self):
        return "ParserLimits(n=%s, m=%s)" % (self.max_parses, self.max_edges)


class SessionFlags:
    def __init__(
        self,
        learning=False,
        lp=True,
        types=True,
        hfc=True,
        data=False,
        training=False,
        unary_super=False,
        binary_super=True,
    ):
        self.learning = learning
        self.lp = lp
        self.types = types
        self.hfc = hfc
        self.data = data
        self.training = training
        self.unary_super = unary_super
        self.binary_super = binary_super


class Edge:
    __slots__ = (
        "id",
        "start",
        "end",
        "rule_id",
        "arity",
        "nfound",
        "instances",
        "children",
        "token",
        "bad",
        "bad_reason",
        "score",
        "built_rule",
        "derivations",
        "_cat",
        "_category_at",
    )

    def __init__(
        self, eid, start, end, rule_id, arity, nfound, instances, children, category_at, token=None
    ):
        self.id = eid
        self.start = start
        self.end = end
        self.rule_id = rule_id
        self.arity = arity
        self.nfound = nfound
        self.instances = instances
        self.children = children
        self.token = token
        self.bad = False
        self.bad_reason = None
        self.score = None
        self.built_rule = None
        self.derivations = 1
        self._cat = None
        self._category_at = category_at  # the grammar's memoised cat_at

    @property
    def is_lexical(self):
        return self.token is not None

    @property
    def is_inactive(self):
        return self.is_lexical or self.nfound == self.arity

    def cat(self):
        if self._cat is None:
            if self.is_lexical:
                self._cat = Category(self.instances)
            else:
                self._cat = self._category_at(self.instances, LHS)
        return self._cat

    def slot_cat(self, i):
        return self._category_at(self.instances, slot(i))

    def replace_instances(self, instances):
        self.instances = instances
        self._cat = None

    def __repr__(self):
        kind = "lex" if self.is_lexical else ("inactive" if self.is_inactive else "active")
        return "Edge(%d %s %d..%d %s)" % (self.id, kind, self.start, self.end, self.rule_id)


class Chart:
    def __init__(self, n_tokens):
        self.n = n_tokens
        self.edges = []
        self.by_key = set()
        self.actives_by_end = [[] for _ in range(n_tokens + 1)]
        self.inactives_by_start = [[] for _ in range(n_tokens + 1)]

    def edge(self, eid):
        return self.edges[eid]

    @property
    def created(self):
        return len(self.edges)


class ParseTree:
    """Instantiated node (or token leaf) with subtrees."""

    __slots__ = ("cat", "rule_id", "token", "children")

    def __init__(self, cat, rule_id=None, token=None, children=()):
        self.cat = cat
        self.rule_id = rule_id
        self.token = token
        self.children = tuple(children)

    @property
    def is_leaf(self):
        return self.token is not None

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def display(self):
        """Nested list display: ("RULE" (child ...)) with |token| leaves."""
        if self.is_leaf:
            return "(|%s|)" % self.token
        inner = " ".join(child.display() for child in self.children)
        return '("%s" (%s))' % (self.rule_id, inner)


class ParseResult:
    def __init__(self, trees, learnt, n_parses, edges_created, resource_bounded, chart, cap_hits=0):
        self.trees = trees
        self.learnt = learnt
        self.n_parses = n_parses
        self.edges_created = edges_created
        self.resource_bounded = resource_bounded
        self.chart = chart
        self.cap_hits = cap_hits


class _Bounded(Exception):
    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind


class ChartParser:
    """One parse session; not shareable mid-run."""

    def __init__(
        self,
        grammar,
        lexicon,
        model=None,
        store=None,
        flags=None,
        limits=None,
        root=None,
        trace=None,
    ):
        self.grammar = grammar
        self.lexicon = lexicon
        self.model = model
        self.store = store
        self.flags = flags or SessionFlags()
        self.limits = limits or ParserLimits()
        self.root = root if root is not None else EMPTY_CAT
        self.trace = trace
        self._category_at = grammar.category_at  # one bound method for every edge
        self.chart = None
        self.agenda = deque()
        self.supers = []
        if self.flags.unary_super:
            self.supers.append(super_rule(1))
        if self.flags.binary_super:
            self.supers.append(super_rule(2))
        self.seeded = False
        self.spanning = []  # (edge, its category forced by the root), in creation order
        self.parses_found = 0
        self.resource_bounded = False
        self.cap_hits = 0

    def _on_cap(self, fanout):
        self.cap_hits += 1

    # -- driving -----------------------------------------------------------

    def parse(self, tokens):
        self.chart = Chart(len(tokens))
        try:
            self._init_lexical(tokens)
            self._run()
            if self.flags.learning and not self.spanning:
                self.seed_super()
                self._run()
        except _Bounded as stop:
            if stop.kind == "edges":
                self.resource_bounded = True
        limit = self.limits.max_parses
        trees = self.extract_trees(limit)
        learnt = self._retain_rules(trees) if self.flags.learning else []
        return ParseResult(
            trees,
            learnt,
            len(trees),
            self.chart.created,
            self.resource_bounded,
            self.chart,
            self.cap_hits,
        )

    def _init_lexical(self, tokens):
        for i, tok in enumerate(tokens):
            cats = self.lexicon.lookup_token(tok)
            if not cats:
                raise UnknownTerminal("unknown terminal %r" % tok)
            for d in cats:
                self._add_edge(None, i, i + 1, 0, 0, (d,), (), token=tok)

    def _proposal_rules(self):
        rules = list(self.grammar.original)
        if not self.flags.learning:
            rules += self.grammar.learnt
        if self.seeded:
            rules += self.supers
        return rules

    def _run(self):
        # bad edges never reach the agenda, actives_by_end or inactives_by_start
        while self.agenda:
            edge = self.chart.edge(self.agenda.popleft())
            if edge.is_inactive:
                self.propose(edge)
                for active_id in list(self.chart.actives_by_end[edge.start]):
                    self.extend(self.chart.edge(active_id), edge)
            else:
                for inactive_id in list(self.chart.inactives_by_start[edge.end]):
                    self.extend(edge, self.chart.edge(inactive_id))

    # -- the chart operations ------------------------------------------------

    def propose(self, inactive, rules=None):
        """Add an active edge for every rule whose first daughter accepts the
        inactive edge's category; repeat proposals are absorbed by duplicate
        detection."""
        if inactive.bad:
            return
        for rule in rules if rules is not None else self._proposal_rules():
            self._combine(rule.id, rule.arity, rule.instances, 0, (), inactive)

    def extend(self, active, inactive):
        """Move the head of the active edge's needed list to found if the
        inactive edge's category unifies with it."""
        if active.end != inactive.start or inactive.bad:
            return
        self._combine(
            active.rule_id,
            active.arity,
            active.instances,
            active.nfound,
            active.children,
            inactive,
            start=active.start,
        )

    def _combine(self, rule_id, arity, instances, nfound, children, inactive, start=None):
        # edges may share this tuple: Edge.replace_instances rebinds
        survivors = self.grammar.survivors(instances, slot(nfound + 1), inactive.cat().disjuncts)
        if not survivors:
            return None
        return self._add_edge(
            rule_id,
            inactive.start if start is None else start,
            inactive.end,
            arity,
            nfound + 1,
            survivors,
            children + (inactive.id,),
        )

    def seed_super(self):
        """After a failed parse, propose the enabled super rules from every
        inactive edge in the chart.  The new active edges extend with the
        existing inactive edges when they come off the agenda."""
        self.seeded = True
        for edge in list(self.chart.edges):
            if edge.is_inactive and not edge.bad:
                self.propose(edge, rules=self.supers)

    def _add_edge(self, rule_id, start, end, arity, nfound, instances, children, token=None):
        key = (rule_id, start, end, children, token)
        if key in self.chart.by_key:
            return None
        self.chart.by_key.add(key)
        edge = Edge(
            self.chart.created, start, end, rule_id, arity, nfound, instances, children,
            self._category_at, token,
        )
        self.chart.edges.append(edge)
        if edge.is_inactive and rule_id is not None and rule_id.startswith("*super-"):
            self.criticise(edge)
        if not edge.bad:
            if edge.is_inactive:
                for cid in children:
                    edge.derivations *= self.chart.edge(cid).derivations
                if self.flags.data and self.store is not None and not edge.is_lexical:
                    edge.score = self._edge_score(edge)
                self.chart.inactives_by_start[start].append(edge.id)
                self._note_parse(edge)
            else:
                self.chart.actives_by_end[end].append(edge.id)
            self.agenda.append(edge.id)
        if self.trace:
            self.trace(edge)
        if self.limits.max_edges is not None and self.chart.created >= self.limits.max_edges:
            raise _Bounded("edges")
        return edge

    def _note_parse(self, edge):
        # no edge is marked bad after this, so the spanning list stays valid
        if edge.start == 0 and edge.end == self.chart.n:
            forced = unify_cat(edge.cat(), self.root)
            if not forced.is_bottom:
                self.spanning.append((edge, forced))
                self.parses_found += edge.derivations
                if (
                    self.limits.max_parses is not None
                    and self.parses_found >= self.limits.max_parses
                ):
                    raise _Bounded("parses")

    # -- criticism -------------------------------------------------------------

    def criticise(self, edge):
        """Give a completed super-rule instantiation a freshly built rule, or
        mark it bad with the reason of the first step that rejects it."""
        rhs = [edge.slot_cat(i) for i in range(1, edge.arity + 1)]
        built = self._rule_or_reason(edge.arity, rhs)
        if not isinstance(built, str) and self.flags.data and self.store is not None:
            if not self._judge(edge, built):
                built = "judged"
        if isinstance(built, str):
            edge.bad = True
            edge.bad_reason = built
        else:
            edge.replace_instances(built.instances)
            edge.built_rule = built

    def _rule_or_reason(self, arity, rhs):
        """The rule built over the RHS, or the bad_reason of the first check
        it fails: redundancy, the model, then X-bar construction."""
        if self._covered_by_original(arity, rhs):
            return "redundant"
        if self.model is not None:
            reason = criticise_rhs(
                rhs, self.model, self.grammar.registry, lp=self.flags.lp, types=self.flags.types
            )
            if reason is not None:
                return reason
        nonhead = None  # the HFC off: projections share nothing
        if self.flags.hfc:
            nonhead = self.model.nonhead if self.model is not None else DEFAULT_NONHEAD
        rule_id = self.grammar.next_learnt_id(arity)
        if arity == 1:
            return construct_unary_cat(rhs[0], self.grammar.max_bar, nonhead, rule_id)
        return construct_binary_cat(rhs[0], rhs[1], self.grammar.max_bar, nonhead, rule_id)

    def _covered_by_original(self, arity, rhs):
        """A same-arity original rule already licenses this RHS."""
        for rule in self.grammar.original:
            if rule.arity != arity:
                continue
            insts = rule.instances
            for i, c in enumerate(rhs, start=1):
                insts = self.grammar.survivors(insts, slot(i), c.disjuncts)
                if not insts:
                    break
            else:
                return True
        return False

    def _daughter_summary(self, edge):
        out = []
        for i, cid in enumerate(edge.children, start=1):
            child = self.chart.edge(cid)
            out.append((edge.slot_cat(i), child.score if not child.is_lexical else None))
        return out

    def _judge(self, edge, built):
        daughters = self._daughter_summary(edge)
        return scoring.judge(
            self.store, built.lhs, daughters, registry=self.grammar.registry, on_cap=self._on_cap
        )

    def _edge_score(self, edge):
        daughters = self._daughter_summary(edge)
        return scoring.score_local(
            self.store, edge.cat(), daughters, registry=self.grammar.registry, on_cap=self._on_cap
        )

    # -- extraction ------------------------------------------------------------

    def extract_trees(self, k=None):
        """Up to k parse trees over spanning, root-compatible edges, in edge
        creation order then found-child order."""
        trees = []
        memo = {}  # (edge id, forced category) -> tree list, for this call
        for edge, forced in self.spanning:
            for tree in self._edge_trees(edge, forced, memo):
                trees.append(tree)
                if k is not None and len(trees) >= k:
                    return trees
        return trees

    def _edge_trees(self, edge, forced, memo):
        if edge.is_lexical:
            cat = unify_cat(Category(edge.instances), forced)
            if not cat.is_bottom:
                yield ParseTree(cat, token=edge.token)
            return
        narrowed = self.grammar.survivors(edge.instances, LHS, forced.disjuncts)
        if not narrowed:
            return
        node_cat = self._category_at(narrowed, LHS)
        rule_id = edge.built_rule.id if edge.built_rule is not None else edge.rule_id
        child_iters = []
        for i, cid in enumerate(edge.children, start=1):
            child_forced = self._category_at(narrowed, slot(i))
            subtrees = memo.get((cid, child_forced))
            if subtrees is None:
                subtrees = list(self._edge_trees(self.chart.edge(cid), child_forced, memo))
                memo[cid, child_forced] = subtrees
            child_iters.append(subtrees)
        for combo in itertools.product(*child_iters):
            yield ParseTree(node_cat, rule_id=rule_id, children=combo)

    # -- retention ---------------------------------------------------------------

    def _retain_rules(self, trees):
        """Rules used in extracted parses pass through the retention check,
        children before parents so support records resolve."""
        built_by_id = {}
        for edge in self.chart.edges:
            if edge.built_rule is not None:
                built_by_id[edge.built_rule.id] = edge.built_rule
        alias = {}
        retained = []
        seen = set()

        def resolve(rid):
            return alias.get(rid, rid)

        def visit(node):
            for child in node.children:
                visit(child)
            rid = node.rule_id
            if rid is None or rid not in built_by_id or rid in seen:
                return
            seen.add(rid)
            rule = built_by_id[rid]
            daughters = tuple(
                SupportRecord.LEXICAL if c.is_leaf else resolve(c.rule_id)
                for c in node.children
            )
            support = SupportRecord(rid, daughters)
            stored = self.grammar.add_learnt(rule, support, aliases=alias)
            if stored is not None:
                retained.append(stored)

        for tree in trees:
            visit(tree)
        return retained


def harvest_local_trees(chart):
    """One-level local trees (mother category, daughter categories) of every
    non-bad, non-lexical inactive edge; partial charts contribute too."""
    out = []
    for edge in chart.edges:
        if edge.bad or edge.is_lexical or not edge.is_inactive:
            continue
        daughters = [edge.slot_cat(i) for i in range(1, edge.arity + 1)]
        out.append((edge.cat(), daughters))
    return out


def parse(tokens, grammar, lexicon, model=None, store=None, flags=None, limits=None, root=None, trace=None):
    """Parse a terminal sequence, learning missing rules when enabled."""
    parser = ChartParser(grammar, lexicon, model, store, flags, limits, root, trace)
    return parser.parse(tokens)
