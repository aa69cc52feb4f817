"""Output checks that do not use the chart parser.

* `Recogniser`: a CKY recogniser over the grammar's rule instances that
  uses `fs.unify` alone; its verdict must equal the chart's on every input
  the edge bound did not stop.
* `tree_problems`: every returned tree is licensed by the grammar.
* `match_score`: the paper's greedy longest-common-run plausibility matcher,
  written from its definition with a dynamic-programming run search.
* `model_problems` and `redundant_rules`: properties every retained rule
  must have, read from the model file's own text.
"""

from __future__ import annotations

import itertools
import re

from gramgrow import fs as F

LHS = "*LHS*"


def slot(i):
    return "*R%d*" % i


def _part(inst, feat):
    v = inst.get(feat)
    return v if isinstance(v, F.FS) else F.FS.empty()


def lexical_fs(lexicon, token):
    got = lexicon.entries.get(token) or lexicon.entries.get(token.lower()) or []
    return list(got)


class Recogniser:
    """Bottom-up CKY over distinct mother structures per span.

    Unification results are cached across inputs, so repeated spans of the
    same words cost one dictionary lookup.
    """

    def __init__(self, grammar, lexicon):
        self.lexicon = lexicon
        self.unary = []
        self.binary = []
        for rule in grammar.rules:
            for inst in rule.instances:
                if rule.arity == 1:
                    self.unary.append((inst, inst.get(slot(1))))
                elif rule.arity == 2:
                    self.binary.append((inst, inst.get(slot(1)), inst.get(slot(2))))
                else:
                    raise ValueError("rule %s has arity %d" % (rule.id, rule.arity))
        self._left = {}
        self._mother = {}
        self._unary = {}
        self._wrap1 = {}
        self._wrap2 = {}

    def _w(self, cache, feat, d):
        w = cache.get(d)
        if w is None:
            w = cache[d] = F.fs_from_pairs([(feat, d)])
        return w

    def _with_left(self, k, left):
        key = (k, left)
        hit = self._left.get(key, False)
        if hit is False:
            inst, r1, _ = self.binary[k]
            hit = None
            if not isinstance(r1, F.FS) or F.unify(r1, left) is not None:
                hit = F.unify(inst, self._w(self._wrap1, slot(1), left))
            self._left[key] = hit
        return hit

    def _binary_mothers(self, left, right):
        key = (left, right)
        hit = self._mother.get(key)
        if hit is None:
            out = []
            for k, (_, _, r2) in enumerate(self.binary):
                partial = self._with_left(k, left)
                if partial is None:
                    continue
                if isinstance(r2, F.FS) and F.unify(r2, right) is None:
                    continue
                full = F.unify(partial, self._w(self._wrap2, slot(2), right))
                if full is not None:
                    out.append(_part(full, LHS))
            hit = self._mother[key] = tuple(out)
        return hit

    def _unary_mothers(self, d):
        hit = self._unary.get(d)
        if hit is None:
            out = []
            for inst, r1 in self.unary:
                if isinstance(r1, F.FS) and F.unify(r1, d) is None:
                    continue
                full = F.unify(inst, self._w(self._wrap1, slot(1), d))
                if full is not None:
                    out.append(_part(full, LHS))
            hit = self._unary[d] = tuple(out)
        return hit

    def _close(self, cell):
        seen = set(cell)
        queue = list(cell)
        while queue:
            d = queue.pop()
            for m in self._unary_mothers(d):
                if m not in seen:
                    seen.add(m)
                    cell.append(m)
                    queue.append(m)
        return cell

    def recognises(self, tokens):
        """True iff some structure spans the whole input (the parser's root
        is unconstrained)."""
        n = len(tokens)
        if n == 0:
            return False
        cells = {}
        for i, tok in enumerate(tokens):
            cells[(i, i + 1)] = self._close(lexical_fs(self.lexicon, tok))
        for width in range(2, n + 1):
            for i in range(0, n - width + 1):
                j = i + width
                cell = []
                seen = set()
                for k in range(i + 1, j):
                    for left in cells[(i, k)]:
                        for right in cells[(k, j)]:
                            for m in self._binary_mothers(left, right):
                                if m not in seen:
                                    seen.add(m)
                                    cell.append(m)
                cells[(i, j)] = self._close(cell)
        return bool(cells[(0, n)])


# -- trees --------------------------------------------------------------------


def _licenses(rule, node):
    if rule.arity != len(node.children):
        return False
    cats = [node.cat] + [c.cat for c in node.children]
    feats = [LHS] + [slot(i) for i in range(1, rule.arity + 1)]
    for inst in rule.instances:
        for combo in itertools.product(*[c.disjuncts for c in cats]):
            if F.unify(inst, F.fs_from_pairs(list(zip(feats, combo)))) is not None:
                return True
    return False


def tree_problems(tree, tokens, rules, lexicon):
    """Reasons the tree is not licensed (empty when it is): its leaves must
    be the input tokens in order, each leaf must unify with a lexical entry
    of its token, and each local tree must unify with an instance of the
    rule it names.  `rules` maps rule ids to the rules as they were when
    the tree was built; a learnt rule the grammar did not keep is the one
    the parser constructed."""
    problems = []
    leaves = []

    def rec(node):
        if node.is_leaf:
            leaves.append(node.token)
            entries = lexical_fs(lexicon, node.token)
            if not any(F.unify(d, e) is not None for d in node.cat.disjuncts for e in entries):
                problems.append("leaf %r has no matching lexical entry" % node.token)
            return
        rule = rules.get(node.rule_id)
        if rule is None or not _licenses(rule, node):
            problems.append("local tree %s is not licensed" % node.rule_id)
        for child in node.children:
            rec(child)

    rec(tree)
    if leaves != list(tokens):
        problems.append("leaves %r are not the input %r" % (leaves, list(tokens)))
    return problems


def label_sequence(labels, tree):
    """Preorder labels of a parse tree: the paraphrase of each internal
    node's category (bar levels above one promoted), and for each leaf its
    preterminal label, when it has one, followed by the token."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            if any(d.root_features for d in node.cat.disjuncts):
                out.append(labels.paraphrase_cat(node.cat, promote=True))
            out.append(node.token)
            continue
        out.append(labels.paraphrase_cat(node.cat, promote=True))
        stack.extend(reversed(node.children))
    return out


def bracket_sequence(text):
    """Preorder labels and tokens of a '(LABEL child ...)' benchmark tree."""
    out = []
    for tok in re.findall(r"\(\s*[^\s()]+|[^\s()]+", text):
        out.append(tok[1:].strip() if tok.startswith("(") else tok)
    return out


def _longest_run(tau, beta):
    """(length, start in tau) of the longest contiguous run of tau found in
    beta; the earliest start in tau wins ties."""
    best_len, best_start = 0, 0
    prev = [0] * (len(beta) + 1)
    for i in range(1, len(tau) + 1):
        cur = [0] * (len(beta) + 1)
        for j in range(1, len(beta) + 1):
            if tau[i - 1] == beta[j - 1]:
                cur[j] = prev[j - 1] + 1
                start = i - cur[j]
                if cur[j] > best_len or (cur[j] == best_len and start < best_start):
                    best_len, best_start = cur[j], start
        prev = cur
    return best_len, best_start


def match_score(test, bench):
    """Extract the longest shared run from the test list until none is left;
    score is the mean run length over the benchmark length."""
    tau = list(test)
    runs = []
    while tau:
        n, start = _longest_run(tau, bench)
        if n == 0:
            break
        runs.append(n)
        tau = tau[:start] + tau[start + n:]
    if not runs:
        return 0.0
    return (sum(runs) / len(runs)) / len(bench)


# -- properties of retained rules -------------------------------------------------------


def read_model_text(path):
    """LP rules as (name, left, right) patterns and the non-head features,
    read from a model file: a pattern is (negated, [(feature, value)])."""
    lp = []
    nonhead = set()
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if line.startswith("lp "):
                name, _, body = line[3:].partition(":")
                left, _, right = body.partition("<")
                lp.append((name.strip(), _pattern(left), _pattern(right)))
            elif line.startswith("nonhead "):
                nonhead = set(line.split()[1:])
    return lp, nonhead


def _pattern(text):
    text = text.strip()
    negated = text.startswith("~")
    body = text.lstrip("~").strip().strip("[]")
    pairs = []
    for part in body.split(","):
        feat, value = part.split()
        pairs.append((feat, value))
    return negated, pairs


def _value_ok(want, have):
    if want == "*" or have is None:
        return True  # the wildcard, or an unconstrained shared node
    if isinstance(have, str):
        return have == want
    if isinstance(have, frozenset):
        return want in have
    return False


def matches(pattern, cat):
    """LP matching: every pattern feature is present at the root of some
    disjunct with a compatible value; a negated pattern matches otherwise."""
    negated, pairs = pattern
    hit = any(
        all(f in d.root_features and _value_ok(v, d.get(f)) for f, v in pairs)
        for d in cat.disjuncts
    )
    return hit != negated


def model_problems(rule, lp_rules, nonhead):
    """A retained rule's LHS carries no non-head feature but BAR, and its RHS
    never puts a daughter matching an LP right pattern before one matching
    the left pattern."""
    problems = []
    banned = set(nonhead) - {"BAR"}
    for d in rule.lhs.disjuncts:
        bad = banned & set(d.root_features)
        if bad:
            problems.append("%s LHS carries %s" % (rule.id, ",".join(sorted(bad))))
            break
    rhs = rule.rhs_cats
    for name, left, right in lp_rules:
        for i in range(len(rhs)):
            for j in range(i + 1, len(rhs)):
                if matches(right, rhs[i]) and matches(left, rhs[j]):
                    problems.append("%s violates %s" % (rule.id, name))
    return problems


def redundant_rules(grammar):
    """Ids of learnt rules whose RHS some original rule of the same arity
    already licenses."""
    out = []
    for rule in grammar.learnt:
        rhs = rule.rhs_cats
        feats = [slot(i) for i in range(1, rule.arity + 1)]
        combos = list(itertools.product(*[c.disjuncts for c in rhs]))
        hit = False
        for orig in grammar.original:
            if orig.arity != rule.arity:
                continue
            for inst in orig.instances:
                if any(F.unify(inst, F.fs_from_pairs(list(zip(feats, combo)))) is not None for combo in combos):
                    hit = True
                    break
            if hit:
                break
        if hit:
            out.append(rule.id)
    return out
