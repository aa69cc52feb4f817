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
from .fs import MalformedSyntax
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
        """The tab-separated report, one line a figure."""
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
            if self.plausibility_sd is not None:
                out.append("plausibility_sd\t%.6f" % self.plausibility_sd)
            else:  # a sample sd needs two scores
                out.append("plausibility_sd\tundefined")
        out.append("edges\t%d" % self.edges)
        for w in self.warnings:
            out.append("warning\t%s" % w)
        return out

    def summary(self):
        """The report in sentences, newline-terminated."""
        out = []
        if self.undergen_fraction is not None:
            out.append("Generated %.1f%% of the test corpus." % (100 * self.undergen_fraction))
        else:
            out.append("Undergeneration: undefined (empty test corpus).")
        if self.overgen_fraction is not None:
            out.append("Generated %.1f%% of the random strings." % (100 * self.overgen_fraction))
        if self.plausibility_mean is not None:
            out.append(
                "Plausibility mean %.3f, sd %.3f over %d sentence(s)."
                % (self.plausibility_mean, self.plausibility_sd or 0.0, len(self.plausibility_scores))
            )
        out.append("Edges created: %d." % self.edges)
        return "\n".join(out) + "\n"


def _measured(lines, grammar, lexicon, limits, model, report):
    """Each line parsed with learning off, its edges added to the report:
    the parse result, or the UnknownTerminal error for a line with a token
    the lexicon lacks."""
    for line in lines:
        tokens = line.split() if isinstance(line, str) else list(line)
        try:
            res = parse(tokens, grammar, lexicon, model, flags=SessionFlags(learning=False), limits=limits)
        except UnknownTerminal as err:
            yield err
            continue
        if report is not None:
            report.edges += res.edges_created
        yield res


def undergen(grammar, lexicon, corpus, limits=None, model=None, report=None):
    """Fraction of corpus lines with at least one parse; a line with an
    unknown word counts as unparsed, with a warning on the report."""
    if not corpus:
        return None
    hits = 0
    for res in _measured(corpus, grammar, lexicon, limits, model, report):
        if isinstance(res, UnknownTerminal):
            if report is not None:
                report.warnings.append("unparsed (unknown tag): %s" % res)
        elif res.n_parses > 0:
            hits += 1
    return hits / len(corpus)


def gen_random(lexicon, length, count, seed):
    """Random tag strings: uniform draws with replacement from the terminal
    inventory (file order), reproducible per seed (MT19937)."""
    rng = random.Random(seed)
    inventory = lexicon.terminals
    if not inventory:
        raise MalformedSyntax("random strings need a lexicon with at least one terminal")
    return [
        " ".join(inventory[rng.randrange(len(inventory))] for _ in range(length))
        for _ in range(count)
    ]


def overgen(grammar, lexicon, strings, limits=None, model=None, report=None):
    """Fraction of the given strings with at least one parse."""
    if not strings:
        return None
    results = _measured(strings, grammar, lexicon, limits, model, report)
    hits = sum(not isinstance(res, UnknownTerminal) and res.n_parses > 0 for res in results)
    return hits / len(strings)


# -- plausibility -----------------------------------------------------------------


def normalize_tree(pm, tree):
    """Preorder label list: paraphrase labels at internal nodes (bar levels
    above one promoted to phrasal labels), tokens at leaves."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            # the leaf's category is its preterminal; a bare leaf with an
            # empty category contributes the token alone
            if any(d.root_features for d in node.cat.disjuncts):
                out.append(pm.paraphrase_cat(node.cat, promote=True))
            out.append(node.token)
            continue
        out.append(pm.paraphrase_cat(node.cat, promote=True))
        stack.extend(reversed(node.children))
    return out


def flatten_benchmark(tree):
    """Preorder walk of a benchmark tree: (label, children) or token."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        out.append(node[0])
        stack.extend(reversed(node[1]))
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
    sentences = [sentence for sentence, _ in pairs]
    for res, (_, bench) in zip(_measured(sentences, grammar, lexicon, limits, model, report), pairs):
        if isinstance(res, UnknownTerminal):
            scores.append(0.0)
            continue
        bench_seq = flatten_benchmark(bench)
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


# -- benchmark tree files -------------------------------------------------------------


# the tokens of each bracket style: brackets, and runs of other non-space
# characters; a paren tree also splits square brackets off its words
_TOKEN = {
    "(": re.compile(r"[()\[\]]|[^\s()\[\]]+"),
    "[": re.compile(r"[\[\]]|[^\s\[\]]+"),
}


def parse_benchmark(text):
    """A benchmark tree, (label, children) or a leaf token, from
    '(S (NP Sam) (VP died))' or SEC bracketing '[N some_DD scientists_NN2 N]'.
    A SEC bracket may close with its label before the ']', and its leaves are
    the tags of the tagged words.  Unbalanced, empty or trailing input raises
    MalformedSyntax."""
    text = text.strip()
    sec = text.startswith("[")
    opening, closing = "[]" if sec else "()"
    tokens = _TOKEN[opening].findall(text)
    top = []
    stack = [(None, top)]
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        label, children = stack[-1]
        if tok == opening:
            label = tokens[i + 1] if i + 1 < len(tokens) else closing
            if label in (opening, closing):
                raise MalformedSyntax("unlabelled bracket in benchmark tree: %r" % text)
            node = (label, [])
            children.append(node)
            stack.append(node)
            i += 2
        elif tok == closing or (sec and tok == label and tokens[i + 1 : i + 2] == [closing]):
            if len(stack) == 1:
                raise MalformedSyntax("unbalanced benchmark tree: %r" % text)
            stack.pop()
            i += 1 if tok == closing else 2
        else:
            children.append(tok.rpartition("_")[2] if sec else tok)
            i += 1
    if len(stack) > 1:
        raise MalformedSyntax("unbalanced benchmark tree: %r" % text)
    if len(top) != 1:
        raise MalformedSyntax("benchmark tree must be one tree: %r" % text)
    return top[0]


def benchmark_pairs(lines):
    """(sentence, benchmark tree) pairs from the non-blank lines of a
    plausibility file, where each sentence line is followed by its tree."""
    if len(lines) % 2:
        raise MalformedSyntax("plausibility files pair a sentence line with a tree line")
    return [(lines[i], parse_benchmark(lines[i + 1])) for i in range(0, len(lines), 2)]
