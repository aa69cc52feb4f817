"""Bottom-up active chart parser with super-rule seeding and critic hooks.

Phase one parses with the ordinary grammar.  If that fails and learning is
enabled, super-rule proposals from every inactive edge seed the chart again;
every super-rule instantiation that completes is criticised (redundancy
against the original grammar, the grammaticality model, the rule constructor,
and optionally the treebank judge) and either carries a freshly constructed
rule or is marked bad.  Rules used in extracted parses are retained.
"""

from __future__ import annotations

import functools
import itertools

from .constructor import (
    MAX_BAR,
    MINOR_DAUGHTER,
    NO_BAR,
    NO_HEAD,
    construct_binary_cat,
    construct_unary_cat,
)
from .fs import Category, subsumes_cat, unify_cat
from .grammar import (
    LHS, SupportRecord, UnknownTerminal, cat_at, max_bar_of, narrow, proposals, slot, super_rule,
)
from .model import DEFAULT_NONHEAD, criticise_rhs
from . import scoring


# the reasons of a failed construction, which has drawn a learnt id
_CONSTRUCTION_REASONS = frozenset((MINOR_DAUGHTER, NO_BAR, MAX_BAR, NO_HEAD))


class ParserLimits:
    """Resource bounds: n extracted parses, m created edges (None: unlimited)."""

    def __init__(self, max_parses=None, max_edges=None):
        if max_parses is not None and max_parses < 1:
            raise ValueError("max_parses must be >= 1")
        if max_edges is not None and max_edges < 1:
            raise ValueError("max_edges must be >= 1")
        self.max_parses = max_parses
        self.max_edges = max_edges

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
    """A lexical or inactive edge: a lexicon entry, or a rule with all its
    daughters found.  Only these are criticised, counted, scored, indexed
    by start and extracted, so only these carry the slots for it."""

    __slots__ = (
        "id",
        "start",
        "end",
        "rule_id",
        "arity",
        "instances",
        "children",
        "token",
        "seen",
        "bad",
        "bad_reason",
        "score",
        "built_rule",
        "_cat",
    )

    is_inactive = True

    def __init__(self, eid, start, end, rule_id, arity, instances, children, token=None):
        self.id = eid
        self.start = start
        self.end = end
        self.rule_id = rule_id
        self.arity = arity
        self.instances = instances
        self.children = children
        self.token = token
        self.seen = 0  # the chart's edge count when _run reached the edge
        self.bad = False
        self.bad_reason = None
        self.score = None
        self.built_rule = None
        self._cat = None

    @property
    def nfound(self):
        return self.arity

    @property
    def is_lexical(self):
        return self.token is not None

    def cat(self):
        if self._cat is None:
            if self.is_lexical:
                self._cat = Category(self.instances)
            else:
                self._cat = cat_at(self.instances, LHS)
        return self._cat

    def slot_cat(self, i):
        return cat_at(self.instances, slot(i))

    def __repr__(self):
        kind = "lex" if self.is_lexical else "inactive"
        return "Edge(%d %s %d..%d %s)" % (self.id, kind, self.start, self.end, self.rule_id)


class Active:
    """An active edge: a rule with `nfound` of its `arity` daughters found.
    It is never criticised, scored or extracted, so what an `Edge` keeps
    for those is a class default here, and readers of either kind need not
    tell them apart."""

    __slots__ = (
        "id", "start", "end", "rule_id", "arity", "nfound", "instances", "children", "seen",
    )

    is_inactive = is_lexical = False
    token = None
    bad = False
    bad_reason = None
    built_rule = None
    score = None

    def __init__(self, eid, start, end, rule_id, arity, nfound, instances, children):
        self.id = eid
        self.start = start
        self.end = end
        self.rule_id = rule_id
        self.arity = arity
        self.nfound = nfound
        self.instances = instances
        self.children = children
        self.seen = 0

    def cat(self):
        return cat_at(self.instances, LHS)

    def slot_cat(self, i):
        return cat_at(self.instances, slot(i))

    def __repr__(self):
        return "Edge(%d active %d..%d %s)" % (self.id, self.start, self.end, self.rule_id)


class Chart:
    """The edges in creation order (an edge's id is its index), and the
    non-bad edges indexed by where a partner must meet them.  No edge
    repeats, by construction (see ChartParser.propose)."""

    def __init__(self, n_tokens):
        self.n = n_tokens
        self.edges = []
        self.actives_by_end = [[] for _ in range(n_tokens + 1)]
        self.inactives_by_start = [[] for _ in range(n_tokens + 1)]


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
        """The nodes in preorder, each before its children, children in order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def postorder(self):
        """The nodes, each after its children, children in order."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return reversed(out)

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
    pass


class ChartParser:
    """A parser over one grammar and lexicon.  It parses one token list at a
    time, and may parse many: `_start` sets the per-parse state."""

    def __init__(
        self,
        grammar,
        lexicon,
        model=None,
        store=None,
        flags=None,
        limits=None,
        trace=None,
    ):
        self.grammar = grammar
        self.lexicon = lexicon
        self.model = model
        self.store = store
        self.flags = flags or SessionFlags()
        self.limits = limits or ParserLimits()
        self.trace = trace
        self.supers = ()
        if self.flags.unary_super:
            self.supers += (super_rule(1),)
        if self.flags.binary_super:
            self.supers += (super_rule(2),)
        self._super_ids = frozenset(rule.id for rule in self.supers)
        self._originals = tuple(grammar.original)  # phase one's rules, and the critic's
        # slot names by position, for every arity the grammar holds; learnt
        # and super rules have arity 1 or 2
        arity = max([2] + [rule.arity for rule in self._originals])
        self._slots = tuple(slot(i) for i in range(arity + 1))

    def _on_cap(self, fanout):
        self.cap_hits += 1

    # -- driving -----------------------------------------------------------

    def _start(self, n_tokens):
        """Set every field that one parse reads and writes, for a new parse
        of n_tokens tokens."""
        self.chart = Chart(n_tokens)
        # the rules phase one proposes from; seed_super sets those of phase two
        self._rules = self._originals
        if not self.flags.learning:
            self._rules += tuple(self.grammar.learnt)
        self.spanning = []  # the edges over the whole input, in creation order
        # a first-parse parse (see _add_inactive) keeps, by (start, end), the
        # categories of the non-lexical inactive edges it has built
        flags = self.flags
        first_parse = not (flags.learning or flags.training) and self.limits.max_parses == 1
        self.kept = {} if first_parse else None
        self.resource_bounded = False
        self.cap_hits = 0
        self.built = {}  # rule id -> the rule criticise built under it

    def parse(self, tokens):
        self._start(len(tokens))
        try:
            self._init_lexical(tokens)
            self._run()
            if self.flags.learning and not self.spanning:
                phase_two = len(self.chart.edges)
                self.seed_super()
                self._run(phase_two)
        except _Bounded:
            pass
        limit = self.limits.max_parses
        trees = self.extract_trees(limit)
        learnt = self._retain_rules(trees) if self.flags.learning else []
        return ParseResult(
            trees,
            learnt,
            len(trees),
            len(self.chart.edges),
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
                self._add_inactive(None, i, i + 1, 0, (d,), (), token=tok)

    def _run(self, start=0):
        """Walk the edges from id `start` in creation order, those made on the
        way included, and try each with the partners indexed so far.  A pair
        is tried once, at the earlier of its two visits: a partner visited
        earlier tried this edge if the chart held it then, that is if the
        partner's `seen` exceeds this edge's id.

        Bad edges are skipped and never reach the index lists, and each list
        holds the edges that meet a partner at its position.  A pair's new
        edge spans from the active edge's start to the inactive edge's end,
        so it never joins the list being walked."""
        chart = self.chart
        edges = chart.edges
        propose, extend = self.propose, self.extend
        for edge in itertools.islice(edges, start, None):
            if edge.bad:
                continue
            eid = edge.id
            edge.seen = len(edges)
            if edge.is_inactive:
                propose(edge)
                for active in chart.actives_by_end[edge.start]:
                    if active.seen <= eid:
                        extend(active, edge)
            else:
                for inactive in chart.inactives_by_start[edge.end]:
                    if inactive.seen <= eid:
                        extend(edge, inactive)

    # -- the chart operations ------------------------------------------------

    def propose(self, inactive):
        """Add an edge for every one of the phase's `_rules` whose first
        daughter accepts the (non-bad) inactive edge's category: an
        `Active`, or for a unary rule an inactive edge.

        No edge is made twice, so the chart keeps no keys: phase one
        proposes each inactive edge once, from `_rules`, which holds no
        super rule; seed_super proposes only the super rules, from each
        inactive edge of phase one; phase two proposes only its new edges;
        rule ids are distinct within a grammar; and each (active, inactive)
        pair reaches extend once (see _run)."""
        found = proposals(self._rules, inactive.cat().disjuncts)
        if not found:
            return
        start, end = inactive.start, inactive.end
        children = (inactive.id,)
        for rule, insts in found:
            if rule.arity == 1:
                self._add_inactive(rule.id, start, end, 1, insts, children)
            else:
                self._add_active(rule.id, start, end, rule.arity, 1, insts, children)

    def extend(self, active, inactive):
        """Fill the active edge's next daughter slot with the inactive edge
        that starts where it ends, if its category unifies there: an
        `Active` while daughters remain, else an inactive edge.  Neither
        edge is bad (see _run)."""
        nfound = active.nfound + 1
        insts = narrow(active.instances, self._slots[nfound], inactive.cat().disjuncts)
        if not insts:
            return
        rule_id, start, end = active.rule_id, active.start, inactive.end
        children = active.children + (inactive.id,)
        if nfound < active.arity:
            self._add_active(rule_id, start, end, active.arity, nfound, insts, children)
        else:
            self._add_inactive(rule_id, start, end, nfound, insts, children)

    def seed_super(self):
        """After a failed parse, propose the enabled super rules from every
        inactive edge in the chart, then leave phase one's rules and the
        super rules for phase two.  The new active edges extend with the
        existing inactive edges when _run reaches them.  Phase one
        criticises nothing, so none of its edges is bad."""
        phase_one, self._rules = self._rules, self.supers
        for edge in list(self.chart.edges):
            if edge.is_inactive:
                self.propose(edge)
        self._rules = phase_one + self.supers

    def _add_active(self, rule_id, start, end, arity, nfound, instances, children):
        chart = self.chart
        edges = chart.edges
        eid = len(edges)
        edge = Active(eid, start, end, rule_id, arity, nfound, instances, children)
        edges.append(edge)
        chart.actives_by_end[end].append(edge)
        if self.trace:
            self.trace(edge)
        if self.limits.max_edges is not None and eid + 1 >= self.limits.max_edges:
            self.resource_bounded = True
            raise _Bounded()

    def _add_inactive(self, rule_id, start, end, arity, instances, children, token=None):
        """Add a lexical or inactive edge, unless this is a first-parse parse
        (learning and training off, n = 1) and an earlier non-lexical
        inactive edge over the same span has a category that covers the new
        non-lexical edge's.

        Dropping it keeps the first parse: _run reaches edges in creation
        order and the index lists keep that order, so every pair or proposal
        that would use the covered edge has an earlier twin that uses the
        covering one, whose category covers the twin's result.  The first
        spanning edge of a parse that made every edge is then never derived
        from a covered edge, and is built here from the same children.  The
        m bound counts the edges kept.  Training reads the partial chart of
        a parse that finds no tree, and learning the whole chart, so those
        parses make every edge."""
        kept = self.kept
        if kept is not None and token is None:
            cat = cat_at(instances, LHS)
            cats = kept.get((start, end))
            if cats is None:
                kept[start, end] = [cat]
            else:
                for other in cats:
                    if other is cat or _covers_cat(other, cat):
                        return
                cats.append(cat)
        chart = self.chart
        edges = chart.edges
        eid = len(edges)
        edge = Edge(eid, start, end, rule_id, arity, instances, children, token)
        edges.append(edge)
        if rule_id in self._super_ids:
            self.criticise(edge)
        if not edge.bad:
            if token is None and edge.score is None and self.flags.data and self.store is not None:
                edge.score = self._edge_score(edge)
            chart.inactives_by_start[start].append(edge)
        if self.trace:
            self.trace(edge)  # before _note_parse, which may end the parse
        if not edge.bad:
            self._note_parse(edge)
        if self.limits.max_edges is not None and eid + 1 >= self.limits.max_edges:
            self.resource_bounded = True
            raise _Bounded()

    def _note_parse(self, edge):
        # no edge is marked bad after this, so the spanning list stays valid
        if edge.start == 0 and edge.end == self.chart.n:
            self.spanning.append(edge)
            if self.limits.max_parses is not None and len(self.spanning) >= self.limits.max_parses:
                raise _Bounded()

    # -- criticism -------------------------------------------------------------

    def criticise(self, edge):
        """Give a completed super-rule instantiation a freshly built rule, or
        mark it bad with the reason of the first step that rejects it.  An
        edge the judge accepts keeps the local score of its judgement when
        the built rule's daughter categories are the super edge's, since
        _add_inactive would then score it with the same arguments: the
        mother is the built rule's in both."""
        built = self._rule_or_reason(edge.arity, edge.instances)
        if not isinstance(built, str) and self.flags.data and self.store is not None:
            daughters = self._daughter_summary(edge)
            hits = self.cap_hits
            local = scoring.judge(
                self.store, built.lhs, daughters, registry=self.grammar.registry, on_cap=self._on_cap
            )
            if local is None:
                built = "judged"
            elif all(cat == built.rhs(i) for i, (cat, _) in enumerate(daughters, start=1)):
                edge.score = local
                # the score_local call that _add_inactive now skips would
                # hit the cap as often as the judgement did
                self.cap_hits += self.cap_hits - hits
        if isinstance(built, str):
            edge.bad = True
            edge.bad_reason = built
        else:
            edge.instances = built.instances  # nothing has read edge.cat() yet
            edge.built_rule = built
            self.built[built.id] = built

    def _rule_or_reason(self, arity, instances):
        """The rule built over the RHS of a super edge's instances, or the
        bad_reason of the first check it fails: redundancy, the model, then
        X-bar construction.

        The verdict comes from the process-wide _verdict, keyed by the
        instance tuple, which the chart holds already, so no RHS is built
        for a hit.  A learnt id is drawn, hit or miss, whenever the verdict
        is a rule or a construction reason, so ids are those of a run
        without the memo."""
        flags = self.flags
        built = _verdict(
            arity, instances, self._originals, self.model, self.grammar.registry,
            flags.lp, flags.types, flags.hfc,
        )
        if isinstance(built, str):
            if built in _CONSTRUCTION_REASONS:
                self.grammar.next_learnt_id(arity)
            return built
        return built.renamed(self.grammar.next_learnt_id(arity))

    def _daughter_summary(self, edge):
        out = []
        for i, cid in enumerate(edge.children, start=1):
            child = self.chart.edges[cid]
            out.append((edge.slot_cat(i), child.score if not child.is_lexical else None))
        return out

    def _edge_score(self, edge):
        daughters = self._daughter_summary(edge)
        return scoring.score_local(
            self.store, edge.cat(), daughters, registry=self.grammar.registry, on_cap=self._on_cap
        )

    # -- extraction ------------------------------------------------------------

    def extract_trees(self, k=None):
        """Up to k parse trees over the spanning edges, in edge creation
        order then found-child order."""
        trees = []
        memo = {}  # (edge id, forced category) -> tree list, for this call
        for edge in self.spanning:
            for tree in self._edge_trees(edge, edge.cat(), memo):
                trees.append(tree)
                if k is not None and len(trees) >= k:
                    return trees
        return trees

    def _edge_trees(self, edge, forced, memo):
        if edge.is_lexical:
            cat = _leaf_cat(edge.instances, forced)
            if not cat.is_bottom:
                yield ParseTree(cat, token=edge.token)
            return
        narrowed = narrow(edge.instances, LHS, forced.disjuncts)
        if not narrowed:
            return
        node_cat = cat_at(narrowed, LHS)
        rule_id = edge.built_rule.id if edge.built_rule is not None else edge.rule_id
        child_iters = []
        for i, cid in enumerate(edge.children, start=1):
            child_forced = cat_at(narrowed, slot(i))
            subtrees = memo.get((cid, child_forced))
            if subtrees is None:
                subtrees = list(self._edge_trees(self.chart.edges[cid], child_forced, memo))
                memo[cid, child_forced] = subtrees
            child_iters.append(subtrees)
        for combo in itertools.product(*child_iters):
            yield ParseTree(node_cat, rule_id=rule_id, children=combo)

    # -- retention ---------------------------------------------------------------

    def _retain_rules(self, trees):
        """Offer the rules used in extracted parses to add_learnt, children
        before parents so support records resolve, and each distinct rule
        (arity and instances) once: add_learnt only appends, so the rule
        that covers a repeat is the one that covered its first offer.  A
        support record names each daughter by its covering rule.  The walk
        is a loop: a nested function that called itself would put the
        parser and its chart in a reference cycle, freed only by the cyclic
        collector."""
        built = self.built
        covering = {}  # (arity, instances) -> the first rule that covers them
        retained = []
        for tree in trees:
            for node in tree.postorder():
                rule = built.get(node.rule_id)
                if rule is None or (rule.arity, rule.instances) in covering:
                    continue
                daughters = []
                for child in node.children:
                    used = built.get(child.rule_id)
                    if used is not None:
                        daughters.append(covering[used.arity, used.instances].id)
                    else:
                        daughters.append(SupportRecord.LEXICAL if child.is_leaf else child.rule_id)
                cover = self.grammar.add_learnt(rule, SupportRecord(rule.id, daughters))
                covering[rule.arity, rule.instances] = cover
                if cover is rule:
                    retained.append(rule)
        return retained


@functools.cache
def _verdict(arity, instances, originals, model, registry, lp, types, hfc):
    """The critic's verdict on the RHS of a super edge's instances: a rule
    under a placeholder id, or the bad_reason of the first check it fails.
    The checks read only the arguments, `originals` being the original
    rules, and instances, rules, a model and a registry are interned
    values, so the verdict is cached for the process."""
    rhs = tuple(cat_at(instances, slot(i)) for i in range(1, arity + 1))
    for rule in originals:
        if rule.arity != arity:
            continue
        insts = rule.instances
        for i, c in enumerate(rhs, start=1):
            insts = narrow(insts, slot(i), c.disjuncts)
            if not insts:
                break
        else:
            return "redundant"  # an original rule already licenses the RHS
    if model is not None:
        reason = criticise_rhs(rhs, model, registry, lp=lp, types=types)
        if reason is not None:
            return reason
    nonhead = None  # the HFC off: projections share nothing
    if hfc:
        nonhead = model.nonhead if model is not None else DEFAULT_NONHEAD
    max_bar = max_bar_of(registry)
    if arity == 1:
        return construct_unary_cat(rhs[0], max_bar, nonhead)
    return construct_binary_cat(rhs[0], rhs[1], max_bar, nonhead)


@functools.cache
def _covers_cat(cat, cat2):
    """subsumes_cat, cached for the process: categories are values."""
    return subsumes_cat(cat, cat2)


@functools.cache
def _leaf_cat(instances, forced):
    """A lexical edge's category under the one its tree position forces,
    cached for the process; unify_cat is looked up per call, so a rebound
    unify_cat sees every miss."""
    return unify_cat(Category(instances), forced)


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


def parse(tokens, grammar, lexicon, model=None, store=None, flags=None, limits=None, trace=None):
    """Parse a terminal sequence, learning missing rules when enabled."""
    parser = ChartParser(grammar, lexicon, model, store, flags, limits, trace)
    return parser.parse(tokens)
