"""Grammar quality metrics: undergeneration, overgeneration, plausibility.

Undergeneration is the fraction of a corpus the grammar fails to parse (we
report the parsed fraction).  Overgeneration is the fraction of randomly
generated strings the grammar parses.  Plausibility matches sampled parses
against benchmark trees: both are flattened to preorder label lists and
greedily aligned; the score is the mean extracted-run length over the
benchmark length.
"""

from __future__ import annotations

import math
import random
import re

from .chart import SessionFlags, parse
from .grammar import UnknownTerminal

class EvalReport:
    def __init__(self):
        self.undergen_fraction = None
        self.overgen_fraction = None
        self.plausibility_scores = []
        self.plausibility_mean = None
        self.plausibility_sd = None
        self.edges = 0
        self.warnings = []

    def lines(self):
        out = []
        if self.undergen_fraction is not None:
            out.append("undergen\t%.6f" % self.undergen_fraction)
        else:
            out.append("undergen\tundefined")
        if self.overgen_fraction is not None:
            out.append("overgen\t%.6f" % self.overgen_fraction)
        for i, s in enumerate(self.plausibility_scores, start=1):
            out.append("plausible\tP%d\t%.6f" % (i, s))
        if self.plausibility_mean is not None:
            out.append("plausibility_mean\t%.6f" % self.plausibility_mean)
            out.append("plausibility_sd\t%.6f" % self.plausibility_sd)
        out.append("edges\t%d" % self.edges)
        for w in self.warnings:
            out.append("warning\t%s" % w)
        return out


def _eval_flags():
    # measurement never learns
    return SessionFlags(learning=False)


def undergen(grammar, lexicon, corpus, limits=None, model=None, report=None):
    """Fraction of corpus lines with at least one parse (learning disabled)."""
    if not corpus:
        return None
    hits = 0
    for line in corpus:
        tokens = line.split() if isinstance(line, str) else list(line)
        try:
            res = parse(tokens, grammar, lexicon, model, flags=_eval_flags(), limits=limits)
        except UnknownTerminal as err:
            if report is not None:
                report.warnings.append("unparsed (unknown tag): %s" % err)
            continue
        if report is not None:
            report.edges += res.edges_created
        if res.n_parses > 0:
            hits += 1
    return hits / len(corpus)


def gen_random(lexicon, length, count, seed):
    """Random tag strings: uniform draws with replacement from the terminal
    inventory (file order), reproducible per seed (MT19937)."""
    rng = random.Random(seed)
    inventory = lexicon.terminals
    if not inventory:
        raise ValueError("empty lexicon")
    return [
        " ".join(inventory[rng.randrange(len(inventory))] for _ in range(length))
        for _ in range(count)
    ]


def overgen(grammar, lexicon, strings, limits=None, model=None, report=None):
    """Fraction of the given strings with at least one parse."""
    if not strings:
        return None
    hits = 0
    for line in strings:
        tokens = line.split() if isinstance(line, str) else list(line)
        try:
            res = parse(tokens, grammar, lexicon, model, flags=_eval_flags(), limits=limits)
        except UnknownTerminal:
            continue
        if report is not None:
            report.edges += res.edges_created
        if res.n_parses > 0:
            hits += 1
    return hits / len(strings)


# -- plausibility -----------------------------------------------------------------


def normalize_tree(pm, tree):
    """Preorder label list: paraphrase labels at internal nodes (bar levels
    above one promoted to phrasal labels), tokens at leaves."""
    out = []

    def rec(node):
        if node.is_leaf:
            # the leaf's category is its preterminal; a bare leaf with an
            # empty category contributes the token alone
            if any(d.root_features for d in node.cat.disjuncts):
                out.append(pm.paraphrase_cat(node.cat, promote=True))
            out.append(node.token)
            return
        out.append(pm.paraphrase_cat(node.cat, promote=True))
        for child in node.children:
            rec(child)

    rec(tree)
    return out


def flatten_benchmark(tree):
    """Preorder walk of a benchmark tree: (label, children) or token."""
    out = []

    def rec(node):
        if isinstance(node, str):
            out.append(node)
            return
        out.append(node[0])
        for child in node[1]:
            rec(child)

    rec(tree)
    return out


def match_parse(test_seq, bench_seq):
    """Greedy longest-common-sublist extraction score in [0, 1].

    Repeatedly find the longest contiguous run of the test list that occurs
    contiguously in the benchmark list (ties: earliest start in the test
    list), remove it from the test list only, and stop when nothing is
    shared.  Score: mean extracted length over the benchmark length.
    """
    if not bench_seq:
        raise ValueError("benchmark sequence must be non-empty")
    tau = list(test_seq)
    beta = list(bench_seq)
    lengths = []
    while tau:
        run, start = _longest_common_run(tau, beta)
        if run == 0:
            break
        del tau[start : start + run]
        lengths.append(run)
    if not lengths:
        return 0.0
    return (sum(lengths) / len(lengths)) / len(beta)


def _occurs(chunk, beta):
    n = len(chunk)
    return any(beta[i : i + n] == chunk for i in range(len(beta) - n + 1))


def _longest_common_run(tau, beta):
    """(length, start) of the longest run of tau that occurs in beta, at its
    earliest start in tau; (0, 0) when they share nothing."""
    for n in range(min(len(tau), len(beta)), 0, -1):
        for start in range(len(tau) - n + 1):
            if _occurs(tau[start : start + n], beta):
                return n, start
    return 0, 0


def plausibility(grammar, lexicon, pairs, k, pm, limits=None, model=None, report=None):
    """Best-of-k parse match per (sentence, benchmark tree) pair; unparsed
    sentences score zero.  Returns (scores, mean, sample sd)."""
    scores = []
    for sentence, bench in pairs:
        tokens = sentence.split() if isinstance(sentence, str) else list(sentence)
        bench_seq = flatten_benchmark(bench)
        try:
            res = parse(tokens, grammar, lexicon, model, flags=_eval_flags(), limits=limits)
        except UnknownTerminal:
            scores.append(0.0)
            continue
        if report is not None:
            report.edges += res.edges_created
        best = 0.0
        for tree in res.trees[:k]:
            best = max(best, match_parse(normalize_tree(pm, tree), bench_seq))
        scores.append(best)
    mean = sum(scores) / len(scores) if scores else None
    sd = None
    if scores and len(scores) > 1:
        var = sum((s - mean) ** 2 for s in scores) / (len(scores) - 1)
        sd = math.sqrt(var)
    return scores, mean, sd


def t_test(a, b):
    """Welch two-sample t statistic; positive when mean(a) > mean(b)."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("samples need at least two observations each")
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    va = sum((x - ma) ** 2 for x in a) / (len(a) - 1)
    vb = sum((x - mb) ** 2 for x in b) / (len(b) - 1)
    denom = math.sqrt(va / len(a) + vb / len(b))
    if denom == 0:
        raise ValueError("both samples have zero variance")
    return (ma - mb) / denom


# -- benchmark tree files -------------------------------------------------------------


_PAREN_TOKEN = re.compile(r"\(|\)|[^\s()\[\]]+|\[|\]")


def parse_benchmark(text):
    """A benchmark tree: '(S (NP Sam) (VP died))' or SEC-style
    '[N Sam_NP1 N]' bracketing (converted)."""
    text = text.strip()
    if text.startswith("["):
        return _convert_sec(text)
    tokens = _PAREN_TOKEN.findall(text)
    tree, rest = _parse_paren(tokens, 0)
    if rest != len(tokens):
        raise ValueError("trailing input in benchmark tree: %r" % text)
    return tree


def _parse_paren(tokens, i):
    if tokens[i] != "(":
        return tokens[i], i + 1
    label = tokens[i + 1]
    i += 2
    children = []
    while tokens[i] != ")":
        child, i = _parse_paren(tokens, i)
        children.append(child)
    return (label, children), i + 1


def _convert_sec(text):
    """SEC bracketing: '[N some_DD scientists_NN2 N]' nests labelled brackets
    around tagged words; tags become the leaf tokens."""
    tokens = text.replace("[", " [ ").replace("]", " ] ").split()
    tree, rest = _parse_sec(tokens, 0)
    if rest != len(tokens):
        raise ValueError("trailing input in SEC tree: %r" % text)
    return tree


def _parse_sec(tokens, i):
    if tokens[i] != "[":
        word = tokens[i]
        tag = word.rpartition("_")[2] if "_" in word else word
        return tag, i + 1
    label = tokens[i + 1]
    i += 2
    children = []
    while True:
        if tokens[i] == "]":
            i += 1
            break
        if tokens[i] == label and i + 1 < len(tokens) and tokens[i + 1] == "]":
            i += 2  # closing "N]" pair
            break
        child, i = _parse_sec(tokens, i)
        children.append(child)
    return (label, children), i
