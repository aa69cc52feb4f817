"""gramgrow: learns unification-grammar rules that repair undergeneration.

When a sentence fails to parse, the learner seeds the chart again with
maximally general "super" rule templates; their instantiations are filtered
by a model of grammaticality (linear precedence, semantic types,
head-feature convention) and by treebank statistics, and the survivors are
kept as new rules.  An evaluation harness measures undergeneration,
overgeneration and parse plausibility of the resulting grammars.
"""

from .chart import ChartParser, ParserLimits, ParseTree, SessionFlags, parse
from .fs import (
    BOTTOM,
    Category,
    FS,
    FeatureRegistry,
    equal,
    equal_cat,
    expand,
    parse_fs,
    print_fs,
    simplify,
    subsumes,
    subsumes_cat,
    unify,
    unify_cat,
)
from .grammar import Grammar, Lexicon, ParaphraseMap, Rule, rule_of, rule_subsumes, super_rule
from .model import ModelConfig, load_model
from .refine import RefineParams, refine_grammar
from .scoring import TripleStore, decompose, judge, score_tree, train

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "Category",
    "ChartParser",
    "FS",
    "FeatureRegistry",
    "Grammar",
    "Lexicon",
    "ModelConfig",
    "ParaphraseMap",
    "ParseTree",
    "ParserLimits",
    "RefineParams",
    "Rule",
    "SessionFlags",
    "TripleStore",
    "decompose",
    "equal",
    "equal_cat",
    "expand",
    "judge",
    "load_model",
    "parse",
    "parse_fs",
    "print_fs",
    "refine_grammar",
    "rule_of",
    "rule_subsumes",
    "score_tree",
    "simplify",
    "subsumes",
    "subsumes_cat",
    "super_rule",
    "train",
    "unify",
    "unify_cat",
]
