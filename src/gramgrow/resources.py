"""Shipped resource bundles (demonstration grammar, CLAWS tag lexicon)."""

from importlib import resources

from .fs import FeatureRegistry
from .grammar import Grammar, Lexicon, ParaphraseMap
from .model import load_model


_DATA = resources.files("gramgrow").joinpath("data")


def data_path(name):
    return _DATA.joinpath(name)


def load_bundle(name):
    """(registry, grammar, lexicon, model, labels) of a shipped bundle, all
    loaded or none.  A bundle without a grammar gets an empty one, and one
    without a model None."""

    def path(ext):
        return data_path(name + ext)

    registry = FeatureRegistry.load(path(".features"))
    grammar = Grammar(registry)
    if path(".grammar").is_file():
        grammar.load_rules(path(".grammar"))
    lexicon = Lexicon.load(path(".lexicon"), registry)
    model = load_model(path(".model"), registry) if path(".model").is_file() else None
    labels = ParaphraseMap.load(path(".labels"), registry)
    return registry, grammar, lexicon, model, labels
