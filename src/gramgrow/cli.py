"""Interactive session and batch evaluation commands.

The REPL takes resource-loading commands, flag toggles and bare sentences;
sentences are parsed (and learnt from, when learning is on) with traces in
the classic format: "N rule(s) acquired." / "N parse(s)".
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from .chart import ParserLimits, SessionFlags, harvest_local_trees, parse
from .evaluate import EvalReport, benchmark_pairs, gen_random, overgen, plausibility, undergen
from .fs import FSError, FeatureRegistry, MalformedSyntax, read_text
from .grammar import Grammar, Lexicon, ParaphraseMap, UnknownTerminal
from .model import load_model
from .refine import RefineParams, refine_grammar
from .resources import load_bundle
from .scoring import TripleStore, train, train_local_trees

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_INTERNAL = 3

DEFAULT_SEED = 42


class Session:
    def __init__(self, out=None, trace=False, seed=None):
        self.registry = None
        self.grammar = None
        self.lexicon = None
        self.model = None
        self.store = None
        self.labels = None
        self.flags = SessionFlags(learning=True)
        self.limits = ParserLimits()
        if seed is None:
            try:
                seed = int(os.environ.get("GG_SEED", DEFAULT_SEED))
            except ValueError:
                raise MalformedSyntax("GG_SEED must be an integer") from None
        self.seed = seed
        self.out = out or sys.stdout
        self.trace = trace
        self.last_result = None
        self.counter = 0

    def say(self, text=""):
        print(text, file=self.out)

    # -- resources -----------------------------------------------------------

    def load_features(self, path):
        self.registry = FeatureRegistry.load(path)

    def _features(self):
        """The registry every loader but load-features validates against."""
        if self.registry is None:
            raise FSError("load features first")
        return self.registry

    def load_grammar(self, path):
        grammar = Grammar(self._features())
        grammar.load_rules(path)
        self.grammar = grammar

    def load_lexicon(self, path):
        self.lexicon = Lexicon.load(path, self._features())

    def load_model(self, path):
        self.model = load_model(path, self._features())

    def load_triples(self, path):
        self.store = TripleStore.load(path, self._features())

    def load_paraphrase(self, path):
        self.labels = ParaphraseMap.load(path, self._features())

    def load_bundle(self, name):
        self.registry, self.grammar, self.lexicon, self.model, self.labels = load_bundle(name)

    def ready(self):
        return self.grammar is not None and self.lexicon is not None

    # -- actions ----------------------------------------------------------------

    def _tracer(self):
        if not self.trace:
            return None

        def log(edge):
            print("edge %r%s" % (edge, " BAD:%s" % edge.bad_reason if edge.bad else ""), file=sys.stderr)

        return log

    def parse_sentence(self, text, quiet=False):
        if not self.ready():
            raise FSError("load a grammar and a lexicon first")
        tokens = text.split()
        before = len(self.grammar.learnt)
        result = parse(
            tokens,
            self.grammar,
            self.lexicon,
            self.model,
            self.store,
            flags=self.flags,
            limits=self.limits,
            trace=self._tracer(),
        )
        self.last_result = result
        if not quiet:
            learnt = len(self.grammar.learnt) - before
            if self.flags.learning and result.chart and self._learning_engaged(result):
                self.say("learning")
            if learnt:
                self.say("%d rule(s) acquired." % learnt)
            self.say("%d parse(s)" % result.n_parses)
            if result.resource_bounded:
                self.say("resource-bounded")
        if self.flags.training and self.store is not None:
            self._train_from(result)
        return result

    def _learning_engaged(self, result):
        return any(
            e.rule_id is not None and e.rule_id.startswith("*super-") for e in result.chart.edges
        )

    def _train_from(self, result):
        if result.trees:
            train(self.store, result.trees)
        else:
            train_local_trees(self.store, harvest_local_trees(result.chart))

    def show_parses(self):
        if not self.last_result or not self.last_result.trees:
            self.say("()")
            return
        inner = "\n ".join(t.display() for t in self.last_result.trees)
        self.say("(%s)" % inner)

    def show_flags(self):
        self.say("Current flag settings:")
        self.say("")
        rows = [
            ("Learning", self.flags.learning),
            ("Type checking", self.flags.types),
            ("LP rules", self.flags.lp),
            ("HFC", self.flags.hfc),
            ("SBL", self.flags.data),
            ("Training", self.flags.training),
        ]
        for name, value in rows:
            self.say("%-24s: %s" % (name, "ON" if value else "OFF"))

    FLAG_NAMES = {
        "learning": "learning",
        "types": "types",
        "type-checking": "types",
        "lp": "lp",
        "hfc": "hfc",
        "sbl": "data",
        "data": "data",
        "training": "training",
        "unary": "unary_super",
        "binary": "binary_super",
    }

    def set_flag(self, name, value):
        attr = self.FLAG_NAMES.get(name.lower())
        if attr is None:
            raise FSError("unknown flag %r" % name)
        if attr == "training" and value and self.store is None:
            raise FSError("training requires loaded triples")
        if attr == "data" and value and self.store is None:
            raise FSError("SBL requires loaded triples")
        setattr(self.flags, attr, value)

    def learn_corpus(self, path):
        for line in _read_lines(path):
            self.say("> %s" % line)
            try:
                self.parse_sentence(line)
            except UnknownTerminal as err:
                self.say("error: %s" % err)

    def train_corpus(self, path):
        if self.store is None:
            raise FSError("training requires loaded triples")
        was = self.flags.learning, self.flags.training
        self.flags.learning = False
        self.flags.training = True
        try:
            for line in _read_lines(path):
                try:
                    self.parse_sentence(line, quiet=True)
                except UnknownTerminal as err:
                    self.say("warning: %s" % err)
        finally:
            self.flags.learning, self.flags.training = was
        self.say("%d triple(s), total frequency %d" % (len(self.store.triples), self.store.total))

    def refine(self):
        if self.store is None:
            raise FSError("refinement requires loaded triples")
        if self.grammar is None:
            raise FSError("refinement requires a grammar")
        self.say("Refining and deleting rules ...")
        report = refine_grammar(
            self.store, self.grammar, RefineParams(), self.registry, self.labels
        )
        for line in report:
            self.say(line)

    def save_learnt(self, path):
        if self.grammar is None:
            raise FSError("save-learnt requires a grammar")
        self.grammar.save_learnt(path)
        self.say("%d rule(s) saved" % len(self.grammar.learnt))


def cmd_eval(session, test_path=None, plausible_path=None, random_count=0, random_length=6,
             k=10, seed=None, out_prefix=None):
    """Undergeneration on the test corpus, overgeneration on generated random
    strings, plausibility on (sentence, benchmark) pairs; writes report files."""
    report = EvalReport()
    seed = seed if seed is not None else session.seed
    if test_path is not None:
        corpus = _read_lines(test_path)
        report.undergen_fraction = undergen(
            session.grammar, session.lexicon, corpus, session.limits, session.model, report
        )
    if random_count:
        strings = gen_random(session.lexicon, random_length, random_count, seed)
        report.overgen_fraction = overgen(
            session.grammar, session.lexicon, strings, session.limits, session.model, report
        )
    if plausible_path is not None:
        pairs = benchmark_pairs(_read_lines(plausible_path))
        scores, mean, sd = plausibility(
            session.grammar, session.lexicon, pairs, k, session.labels,
            session.limits, session.model, report,
        )
        report.plausibility_scores = scores
        report.plausibility_mean = mean
        report.plausibility_sd = sd
    if out_prefix:
        # both reports are built before either file is opened, so an error
        # leaves no partial report behind
        tsv = "".join(line + "\n" for line in report.lines())
        txt = report.summary()
        with open(out_prefix + ".tsv", "w", encoding="utf-8") as f:
            f.write(tsv)
        with open(out_prefix + ".txt", "w", encoding="utf-8") as f:
            f.write(txt)
    return report


def _read_lines(path):
    return [line.strip() for line in read_text(path).split("\n") if line.strip()]


# -- the REPL ----------------------------------------------------------------------


USAGE = """commands:
  load-features FILE    load-grammar FILE     load-lexicon FILE
  load-model FILE       load-triples FILE     load-paraphrase FILE
  load-bundle NAME      flags                 set FLAG on|off
  limits N M            parse "SENTENCE"      !*parses*
  learn-corpus FILE     train-corpus FILE     refine-grammar
  eval [--test F] [--plausible F] [--random K L] [--k N] [--seed N] [--out PREFIX]
  save-learnt FILE      quit
a bare line is parsed as a sentence"""


def run_repl(session, lines=None):
    session.say("Entering parser (level 2)")
    source = lines if lines is not None else _stdin_lines(session)
    for raw in source:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if _dispatch(session, line):
                return EXIT_OK
        except (FSError, OSError) as err:
            session.say("error: %s" % err)
    return EXIT_OK


def _stdin_lines(session):
    while True:
        session.counter += 1
        try:
            prompt = "%d Parse+>> " % session.counter
            yield input(prompt)
        except EOFError:
            return


def _dispatch(session, line):
    """Handle one command line; True means quit."""
    if line == "quit":
        return True
    if line == "!*parses*":
        session.show_parses()
        return False
    if line == "flags":
        session.show_flags()
        return False
    loaders = {
        "load-features": session.load_features,
        "load-grammar": session.load_grammar,
        "load-lexicon": session.load_lexicon,
        "load-model": session.load_model,
        "load-triples": session.load_triples,
        "load-paraphrase": session.load_paraphrase,
        "load-bundle": session.load_bundle,
        "learn-corpus": session.learn_corpus,
        "train-corpus": session.train_corpus,
        "save-learnt": session.save_learnt,
    }
    # the first word names the command; only a command's arguments are
    # shlex-split, so a bare sentence may hold an apostrophe
    cmd = line.split()[0]
    if cmd == "set":
        words = _words(line)
        if len(words) == 3 and words[2] in ("on", "off"):
            session.set_flag(words[1], words[2] == "on")
            return False
    elif cmd == "limits":
        words = _words(line)
        if len(words) == 3:
            session.limits = _limits(words[1:])
            return False
    elif cmd in loaders:
        words = _words(line)
        if len(words) == 2:
            loaders[cmd](words[1])
            return False
    elif cmd in ("refine-grammar", "!(refine-grammar)"):
        session.refine()
        return False
    elif cmd == "eval":
        report = _run_eval(session, _eval_args().parse_args(_words(line)[1:]))
        session.say(report.summary().rstrip("\n"))
        return False
    elif cmd == "parse":
        words = _words(line)
        if len(words) >= 2:
            session.parse_sentence(" ".join(words[1:]))
            return False
    elif session.ready():
        # a bare sentence, split on whitespace as learn-corpus does
        session.parse_sentence(line)
        return False
    session.say(USAGE)
    return False


def _limits(words):
    """ParserLimits from the words N M; 'off' or 0 lifts a bound."""
    try:
        n, m = (None if w == "off" else int(w) or None for w in words)
        return ParserLimits(n, m)
    except ValueError as err:
        raise MalformedSyntax(str(err)) from None


def _words(line):
    try:
        return shlex.split(line)
    except ValueError as err:
        raise MalformedSyntax(str(err)) from None


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise MalformedSyntax(message)  # a bad REPL line must not end the session


def _eval_args():
    """The eval options, shared by the REPL command and the eval subcommand."""
    ap = _ArgumentParser(prog="eval", add_help=False)
    ap.add_argument("--test")
    ap.add_argument("--plausible")
    ap.add_argument("--random", nargs=2, type=int, metavar=("COUNT", "LENGTH"))
    ap.add_argument(
        "--k", type=int, default=10, help="plausibility takes the best of K trees; --limits 1 M keeps one"
    )
    # absent unless given, so that it leaves a seed given before the eval
    # subcommand in place
    ap.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    ap.add_argument("--out")
    return ap


def _run_eval(session, ns):
    if not session.ready():
        raise FSError("eval needs a grammar and a lexicon")
    if ns.plausible is not None and session.labels is None:
        raise FSError("eval --plausible needs labels: load-paraphrase FILE, or --labels FILE")
    if ns.k < 1:
        raise MalformedSyntax("--k must be >= 1")
    count, length = ns.random or (0, 6)
    if count < 0 or length < 1:
        raise MalformedSyntax("--random needs COUNT >= 0 and LENGTH >= 1")
    return cmd_eval(session, ns.test, ns.plausible, count, length, ns.k, getattr(ns, "seed", None), ns.out)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="gramgrow", description=__doc__)
    ap.add_argument("--trace", action="store_true", help="emit edge-level logs to stderr")
    ap.add_argument("--seed", type=int, help="seed (overrides GG_SEED)")
    sub = ap.add_subparsers(dest="command")
    repl = sub.add_parser("repl", help="interactive session")
    repl.add_argument("--bundle", help="load a shipped resource bundle (demo, claws)")
    repl.add_argument("--script", help="read commands from a file instead of stdin")
    ev = sub.add_parser("eval", help="batch evaluation", parents=[_eval_args()])
    ev.add_argument("--bundle")
    ev.add_argument("--features")
    ev.add_argument("--grammar")
    ev.add_argument("--lexicon")
    ev.add_argument("--model")
    ev.add_argument("--labels")
    ev.add_argument("--learnt")
    ev.add_argument("--limits", nargs=2, metavar=("N", "M"))
    ns = ap.parse_args(argv)

    try:
        session = Session(trace=ns.trace, seed=ns.seed)
        if ns.command == "eval":
            _load_for_eval(session, ns)
            sys.stdout.write(_run_eval(session, ns).summary())
            return EXIT_OK
        if ns.command in (None, "repl"):
            bundle = getattr(ns, "bundle", None)
            if bundle:
                session.load_bundle(bundle)
            script = getattr(ns, "script", None)
            lines = _read_lines(script) if script else None
            return run_repl(session, lines)
        ap.print_usage()
        return EXIT_USAGE
    except (FSError, OSError) as err:  # UnknownTerminal is an FSError
        print("error: %s" % err, file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as err:  # invariant violation
        print("internal error: %s" % err, file=sys.stderr)
        return EXIT_INTERNAL


def _load_for_eval(session, ns):
    if ns.bundle:
        session.load_bundle(ns.bundle)
    if ns.features:
        session.load_features(ns.features)
    if ns.grammar:
        session.load_grammar(ns.grammar)
    if ns.lexicon:
        session.load_lexicon(ns.lexicon)
    if ns.model:
        session.load_model(ns.model)
    if ns.labels:
        session.load_paraphrase(ns.labels)
    if ns.learnt:
        if session.grammar is None:
            raise FSError("load a grammar first")
        session.grammar.load_rules(ns.learnt, origin="learnt")
    if ns.limits:
        session.limits = _limits(ns.limits)


if __name__ == "__main__":
    sys.exit(main())
