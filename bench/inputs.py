"""Inputs of the gramgrow benchmark: hand-written corpora and seeded strings.

Every input set a run uses comes from this module.  The hand-written parts
are fixed; the seeded parts come from `--seed` alone, through
`gramgrow.evaluate.gen_random` (MT19937 draws over the demo lexicon in file
order) or through `random.Random`.  Round r of a run draws its seeded part
from `round_seed(seed, r)`, so a run that completes more rounds sees more
distinct strings, and the same seed always gives the same rounds.

Regenerate every generated input of a seed (three rounds) as files:

    python3 bench/inputs.py --seed 7 --rounds 3 --out .bench_out/inputs-7
"""

from __future__ import annotations

import argparse
import os
import random

# The paper's worked example and its ungrammatical permutation: the first
# must learn exactly one rule, the second nothing.
WORKED_EXAMPLE = "Sam chases the happy cat"
PERMUTATION = "Sam chases happy the cat"

# Acceptance criterion 11's ten training sentences: the grammar under test
# of `eval` is the demo grammar plus what these teach.
CRITERION_11_TRAINING = [
    "Sam chases the cat",
    "The cat chases Sam",
    "Sam chases the happy cat",
    "the happy cat chases Sam",
    "Sam chases the cat down the road",
    "The cat down the road chases Sam",
    "the road chases the cat",
    "Sam chases the road",
    "the cat chases the cat",
    "the happy happy cat chases Sam",
]

# Hand-written sentences that `learn` and `sbl-train` see after the opening
# pair, before the round's seeded strings.  They are most of each round's
# inputs and time, so the seed moves the figures less than the program does:
# per-sentence learning costs of random strings spread over two decades.
LEARN_FIXED = [
    "Sam chases the cat down the road",
    "the happy happy cat chases Sam",
    "The cat down the road chases the happy road",
    "the happy cat chases the happy road",
    "Sam chases the happy happy road",
    "The road chases Sam down the road",
    "happy Sam chases the cat",
    "the cat chases happy Sam",
    "Sam down the road chases Sam",
    "the happy road down the road chases the cat",
    "Sam chases the cat down the happy road",
    "the cat chases the road down the road",
    "the happy cat down the road chases Sam",
    "Sam chases Sam down the road",
    "the road down the happy road chases the happy cat",
    "The happy happy happy cat chases Sam",
    "Sam chases the road down the cat",
    "down the road Sam chases the cat",
    "the cat the road chases",
    "Sam chases the cat the road",
    "chases the happy cat",
    "the happy cat down the road",
    "Sam the happy cat chases",
    "the road chases",
    "happy happy cat chases the road",
]

# Short sentences that close the fixed part of `sbl-train`'s corpus.  They
# are cheap to parse, which moves the round's median input off a gap in the
# fixed part's costs (from about 58 ms to 75 ms on the reference VM), where
# the few seeded strings decided on which side of it the median fell.
SBL_FIXED_TAIL = [
    "Sam chases Sam",
    "the cat chases Sam",
    "Sam chases the road",
    "the happy cat chases the cat",
]

# Undergeneration corpus for `eval`, written by hand from the demo
# vocabulary.  Grammatical and ungrammatical lines are mixed; the last line
# reaches the 3000-edge bound under the criterion-11 grammar.  Enough lines
# cost about as much as the round's median and its 90th percentile that
# the seeded strings cannot move either far: the two before the last one
# (about 450 ms and 600 ms on the reference VM) close a gap in the costs
# at the 90th percentile, where it moved by a quarter between seeds.
UNDERGEN_CORPUS = [
    "Sam chases the happy road",
    "the happy road chases Sam",
    "Sam chases Sam",
    "the cat chases the happy cat",
    "happy the cat chases Sam",
    "Sam the cat chases",
    "down the road",
    "Sam chases",
    "the the cat chases Sam",
    "cat the chases Sam happy",
    "the road chases the happy happy happy cat",
    "Sam happy chases the cat",
    "chases the cat",
    "happy cat",
    "the cat chases",
    "road the down happy cat",
    "chases chases the cat",
    "Sam Sam chases the road",
    "the happy cat",
    "Sam down the road",
    "the road chases Sam",
    "the Sam chases the cat",
    "Sam chases the cat happy",
    "road chases the cat",
    "Sam the road chases",
    "the cat chases the cat",
    "Sam chases cat",
    "cat chases Sam",
    "the happy cat chases Sam",
    "happy the road chases Sam",
    "Sam road chases the cat",
    "Sam down the road chases",
    "the happy road chases the cat",
    "the happy cat down the road chases the happy road",
]

# Plausibility pairs for `eval`: a sentence and a benchmark tree in the demo
# labels (see src/gramgrow/data/demo.labels).  Leaves carry their
# preterminal label, as the normalised parse trees do.
PLAUSIBILITY_PAIRS = [
    ("Sam chases the cat",
     "(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 cat))))"),
    ("Sam chases the happy cat",
     "(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 (Adj happy) (N1 cat)))))"),
    ("the cat chases Sam",
     "(S (NP (Det the) (N1 cat)) (VP (V0 chases) (NP Sam)))"),
    ("Sam chases the road",
     "(S (NP Sam) (VP (V0 chases) (NP (Det the) (N1 (N0 road)))))"),
]

# Length of the seeded random strings in each workload, and how many a round
# draws.
LEARN_STRING_LENGTH = 4
LEARN_STRINGS_PER_ROUND = 8
EVAL_STRING_LENGTH = 4
EVAL_STRINGS_PER_ROUND = 8
SBL_STRING_LENGTH = 4
SBL_STRINGS_PER_ROUND = 8
PRETRAIN_SENTENCES = 60

# omega of the treebank judge in `sbl-train`: low enough that some
# super-rule instantiations pass, high enough that others are judged bad.
SBL_OMEGA = 0.005
SBL_DELTA = 0.001


def round_seed(seed, r):
    """Seed of round r's strings; distinct rounds of one seed never share it."""
    return seed * 100003 + r


def random_strings(lexicon, length, count, seed):
    from gramgrow.evaluate import gen_random

    return gen_random(lexicon, length, count, seed)


def learn_corpus(lexicon, seed, r):
    return (
        [WORKED_EXAMPLE, PERMUTATION]
        + LEARN_FIXED
        + random_strings(lexicon, LEARN_STRING_LENGTH, LEARN_STRINGS_PER_ROUND, round_seed(seed, r))
    )


def sbl_corpus(lexicon, seed, r):
    return LEARN_FIXED + SBL_FIXED_TAIL + random_strings(lexicon, SBL_STRING_LENGTH, SBL_STRINGS_PER_ROUND, round_seed(seed, r))


def pretraining_corpus(seed, r):
    """Seeded grammatical-looking sentences `NP chases NP` over the demo
    vocabulary; NPs are a name or a determiner, adjectives and a noun,
    optionally followed by a `down` PP.  Each round pretrains on its own
    draw, so that no one draw weighs on a whole run."""
    rng = random.Random(round_seed(seed, r))

    def np(depth=0):
        if rng.random() < 0.3:
            return ["Sam"]
        words = ["the"] + ["happy"] * rng.choice([0, 0, 1, 2])
        words.append(rng.choice(["cat", "road"]))
        if depth == 0 and rng.random() < 0.25:
            words += ["down"] + np(1)
        return words

    out = []
    for _ in range(PRETRAIN_SENTENCES):
        words = np() + ["chases"] + np()
        words[0] = words[0][0].upper() + words[0][1:]
        out.append(" ".join(words))
    return out


def plausibility_lines():
    out = []
    for sentence, tree in PLAUSIBILITY_PAIRS:
        out += [sentence, tree]
    return out


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description="write every generated input of a seed")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--out", required=True, help="directory to write into")
    ns = ap.parse_args(argv)
    import _env

    _env.import_gramgrow()
    from gramgrow.resources import data_path
    from gramgrow.grammar import Lexicon
    from gramgrow.fs import FeatureRegistry

    registry = FeatureRegistry.load(data_path("demo.features"))
    lexicon = Lexicon.load(data_path("demo.lexicon"), registry)
    os.makedirs(ns.out, exist_ok=True)
    for r in range(ns.rounds):
        write_lines(os.path.join(ns.out, "sbl-pretrain-round%d.txt" % r), pretraining_corpus(ns.seed, r))
        write_lines(os.path.join(ns.out, "learn-round%d.txt" % r), learn_corpus(lexicon, ns.seed, r))
        write_lines(os.path.join(ns.out, "sbl-round%d.txt" % r), sbl_corpus(lexicon, ns.seed, r))
        write_lines(
            os.path.join(ns.out, "eval-random-round%d.txt" % r),
            random_strings(lexicon, EVAL_STRING_LENGTH, EVAL_STRINGS_PER_ROUND, round_seed(ns.seed, r)),
        )
    write_lines(os.path.join(ns.out, "eval-undergen.txt"), UNDERGEN_CORPUS)
    write_lines(os.path.join(ns.out, "eval-plausible.txt"), plausibility_lines())
    write_lines(os.path.join(ns.out, "eval-train.txt"), CRITERION_11_TRAINING)
    print("wrote inputs of seed %d to %s" % (ns.seed, ns.out))


if __name__ == "__main__":
    main()
