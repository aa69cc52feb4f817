"""The three workloads: `learn`, `eval` and `sbl-train`.

Each workload has four steps, which `run.py` drives:

* `setup(seed, r)` loads the demo bundle and makes round r's inputs (for
  `eval` also the grammar under test, for `sbl-train` the pretrained store);
* `prepare(state)` makes the round's session (untimed);
* `run(state, prep)` drives the program through its public entry points:
  this is the timed phase;
* `check(state, prep, records)` checks the outputs without the chart parser
  and returns the problems found, the operations attempted and failed, and
  the round's outcome counts.

Every round of a workload attempts the same number of operations, so the
share of failed operations is the same in every run.
"""

from __future__ import annotations

import collections
import functools
import io
import os
import shlex
import tempfile

from gramgrow import cli
from gramgrow.grammar import Grammar
from gramgrow.refine import RefineParams, refine_grammar
from gramgrow.scoring import TripleStore

import inputs
import oracle
from _env import OUT_DIR

LIMITS = "limits 1 3000"  # the bound of ParserLimits.learning_default()


@functools.lru_cache(maxsize=None)
def model_text():
    """LP rules and non-head features, read from the demo model's text."""
    return oracle.read_model_text(os.path.join(os.path.dirname(cli.__file__), "data", "demo.model"))


def _q(path):
    return shlex.quote(path)


class State:
    """What set-up made: the loaded bundle and the fixed inputs."""

    def __init__(self, seed, r):
        self.seed = seed
        self.round = r
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self.base = cli.Session(out=io.StringIO())
        self.base.load_bundle("demo")

    def path(self, name):
        return os.path.join(self.tmp, name)

    def session(self, store=None):
        """A fresh session over the loaded bundle whose grammar holds the
        original rules only."""
        s = cli.Session(out=io.StringIO())
        base = self.base
        s.registry, s.lexicon, s.model, s.labels = base.registry, base.lexicon, base.model, base.labels
        s.grammar = Grammar(base.registry)
        for rule in base.grammar.original:
            s.grammar.add_original(rule)
        s.store = store
        return s


class Record:
    """What the benchmark keeps of one parse: never the chart itself."""

    __slots__ = ("tokens", "n_parses", "learnt", "bounded", "trees", "rules", "reasons",
                 "accepted", "judged", "pairs")

    def __init__(self, tokens, result, grammar, training):
        self.tokens = tokens
        self.n_parses = result.n_parses
        self.learnt = [rule.id for rule in result.learnt]
        self.bounded = result.resource_bounded
        self.trees = list(result.trees)
        self.reasons = collections.Counter()
        self.accepted = 0
        self.judged = 0
        self.pairs = 0
        edges = result.chart.edges if result.chart is not None else []
        # the rules the trees name, as they were at parse time: refinement
        # may later narrow or delete a learnt rule
        built = {e.built_rule.id: e.built_rule for e in edges if e.built_rule is not None}
        self.rules = {}
        for tree in self.trees:
            for node in tree.walk():
                rid = node.rule_id
                if rid is not None and rid not in self.rules:
                    self.rules[rid] = built.get(rid) or (grammar.rule(rid) if rid in grammar else None)
        for e in edges:
            if e.bad:
                self.reasons[e.bad_reason or "?"] += 1
                if e.bad_reason == "judged":
                    self.judged += 1
            elif e.built_rule is not None:
                self.accepted += 1
        if training:
            # what the session writes back into the store: every local tree
            # of the parses, or of the partial chart when there is none
            if result.trees:
                self.pairs = sum(len(n.children) for t in result.trees for n in t.walk() if not n.is_leaf)
            else:
                self.pairs = sum(
                    e.arity for e in edges if not e.bad and not e.is_lexical and e.is_inactive
                )


def _common_checks(grammar, lexicon, records):
    lp_rules, nonhead = model_text()
    problems = []
    for rec in records:
        for tree in rec.trees:
            problems += oracle.tree_problems(tree, rec.tokens, rec.rules, lexicon)
    for rule in grammar.learnt:
        problems += oracle.model_problems(rule, lp_rules, nonhead)
    for rid in oracle.redundant_rules(grammar):
        problems.append("retained rule %s is licensed by an original rule" % rid)
    return problems


def _repl_errors(session):
    return ["REPL said: " + line for line in session.out.getvalue().splitlines() if line.startswith("error:")]


def _outcomes(records):
    reasons = collections.Counter()
    for rec in records:
        reasons.update(rec.reasons)
    return {
        "parses": sum(r.n_parses for r in records),
        "rules_learnt": sum(len(r.learnt) for r in records),
        "rejected": dict(sorted(reasons.items())),
    }


# -- learn ------------------------------------------------------------------------


class Learn:
    """A `learn-corpus` REPL session over one accumulating grammar, ended by
    `save-learnt`; the saved file is then reloaded into a fresh grammar."""

    name = "learn"
    timer_target = ("Session", "parse_sentence")

    def setup(self, seed, r):
        state = State(seed, r)
        state.corpus = inputs.learn_corpus(state.base.lexicon, seed, r)
        inputs.write_lines(state.path("corpus.txt"), state.corpus)
        return state

    def prepare(self, state):
        corpus = state.corpus
        path = state.path("corpus.txt")
        session = state.session()
        lines = [
            "set learning on", "set lp on", "set types on", "set hfc on", "set sbl off",
            LIMITS, "learn-corpus " + _q(path), "save-learnt " + _q(path + ".learnt"),
        ]
        return {"corpus": corpus, "session": session, "lines": lines, "saved": path + ".learnt"}

    def run(self, state, prep):
        cli.run_repl(prep["session"], prep["lines"])

    def inputs_of(self, prep):
        return len(prep["corpus"])

    def check(self, state, prep, records):
        session = prep["session"]
        grammar = session.grammar
        problems = _repl_errors(session)
        if [" ".join(r.tokens) for r in records] != prep["corpus"]:
            problems.append("the session did not parse the corpus line by line")
            return problems, len(prep["corpus"]) + 1, 0, {}
        worked, permuted = records[0], records[1]
        if len(worked.learnt) != 1 or worked.n_parses != 1:
            problems.append("worked example learnt %d rule(s), %d parse(s)" % (len(worked.learnt), worked.n_parses))
        else:
            rule = grammar.rule(worked.learnt[0])
            if any("NTYPE" in d.root_features for d in rule.lhs.disjuncts):
                problems.append("worked example's rule carries NTYPE under HFC")
        if permuted.learnt or permuted.n_parses:
            problems.append("ungrammatical permutation learnt %d rule(s), %d parse(s)"
                            % (len(permuted.learnt), permuted.n_parses))
        problems += _common_checks(grammar, session.lexicon, records)
        # reload the saved grammar: a learnt rule whose instance set changes
        # is the known save-learnt fault
        reloaded = Grammar(state.base.registry)
        reloaded.load_rules(prep["saved"], origin="learnt")
        differs = []
        for rule in grammar.learnt:
            if rule.id not in reloaded or set(reloaded.rule(rule.id).instances) != set(rule.instances):
                differs.append(rule.id)
        failed = int(bool(worked.learnt) and worked.learnt[0] in differs)
        out = _outcomes(records)
        out.update(rules_retained=len(grammar.learnt), reload_differs=len(differs))
        return problems, len(prep["corpus"]) + 1, failed, out


# -- eval -------------------------------------------------------------------------


class Eval:
    """Batch evaluation through `cli.cmd_eval`: undergeneration on the
    hand-written corpus, overgeneration on seeded random strings and
    plausibility on hand-written pairs, with learning off."""

    name = "eval"
    timer_target = ("evaluate", "parse")
    K = 10

    def __init__(self):
        # recogniser verdicts by input; every set-up builds the same grammar
        self.verdicts = {}

    def setup(self, seed, r):
        state = State(seed, r)
        s = state.base
        state.undergen = state.path("undergen.txt")
        state.plausible = state.path("plausible.txt")
        train = state.path("train.txt")
        inputs.write_lines(state.undergen, inputs.UNDERGEN_CORPUS)
        inputs.write_lines(state.plausible, inputs.plausibility_lines())
        inputs.write_lines(train, inputs.CRITERION_11_TRAINING)
        # the grammar under test: criterion 11 learns unbounded, with HFC on
        cli.run_repl(s, ["set learning on", "set hfc on", "limits off off", "learn-corpus " + _q(train), LIMITS])
        state.learnt_rules = len(s.grammar.learnt)
        return state

    def prepare(self, state):
        return {"seed": inputs.round_seed(state.seed, state.round), "out": state.path("report")}

    def run(self, state, prep):
        prep["report"] = cli.cmd_eval(
            state.base, state.undergen, state.plausible,
            inputs.EVAL_STRINGS_PER_ROUND, inputs.EVAL_STRING_LENGTH,
            self.K, prep["seed"], prep["out"],
        )

    def inputs_of(self, prep):
        return len(inputs.UNDERGEN_CORPUS) + inputs.EVAL_STRINGS_PER_ROUND + len(inputs.PLAUSIBILITY_PAIRS)

    def report_problems(self, first, second):
        """Two evaluations of the same inputs must write the same .tsv bytes."""
        if first == second:
            return []
        return ["the .tsv report differs between two evaluations of the same inputs"]

    def check(self, state, prep, records):
        s = state.base
        report = prep["report"]
        problems = _repl_errors(s)
        n_u = len(inputs.UNDERGEN_CORPUS)
        n_r = inputs.EVAL_STRINGS_PER_ROUND
        randoms = inputs.random_strings(s.lexicon, inputs.EVAL_STRING_LENGTH, n_r, prep["seed"])
        want = inputs.UNDERGEN_CORPUS + randoms + [p[0] for p in inputs.PLAUSIBILITY_PAIRS]
        attempted = len(want)
        if [" ".join(r.tokens) for r in records] != want:
            problems.append("the evaluation did not parse its inputs in order")
            return problems, attempted, 0, {}
        unverified = 0
        for rec in records:
            if rec.bounded:
                unverified += 1
                continue
            key = tuple(rec.tokens)
            if key not in self.verdicts:
                # a fresh recogniser per input: its caches die with it
                self.verdicts[key] = oracle.Recogniser(s.grammar, s.lexicon).recognises(rec.tokens)
            if self.verdicts[key] != (rec.n_parses > 0):
                problems.append("verdict on %r: chart %d parse(s), recogniser %s"
                                % (" ".join(rec.tokens), rec.n_parses, self.verdicts[key]))
        for rec in records:
            for tree in rec.trees:
                problems += oracle.tree_problems(tree, rec.tokens, rec.rules, s.lexicon)
        under = sum(r.n_parses > 0 for r in records[:n_u]) / n_u
        over = sum(r.n_parses > 0 for r in records[n_u:n_u + n_r]) / n_r
        if report.undergen_fraction != under:
            problems.append("undergen %r, verdicts give %r" % (report.undergen_fraction, under))
        if report.overgen_fraction != over:
            problems.append("overgen %r, verdicts give %r" % (report.overgen_fraction, over))
        scores = []
        for rec, (_, bench) in zip(records[n_u + n_r:], inputs.PLAUSIBILITY_PAIRS):
            bench_seq = oracle.bracket_sequence(bench)
            best = 0.0
            for tree in rec.trees[: self.K]:
                best = max(best, oracle.match_score(oracle.label_sequence(s.labels, tree), bench_seq))
            scores.append(best)
        if len(report.plausibility_scores) != len(scores) or any(
            abs(a - b) > 1e-12 for a, b in zip(report.plausibility_scores, scores)
        ):
            problems.append("plausibility %r, matcher gives %r" % (report.plausibility_scores, scores))
        with open(prep["out"] + ".tsv", "rb") as f:
            prep["tsv"] = f.read()
        out = _outcomes(records)
        out.update(
            bounded=sum(r.bounded for r in records),
            unverified=unverified,
            undergen=under,
            overgen=over,
            learnt_rules_under_test=state.learnt_rules,
        )
        return problems, attempted, 0, out


# -- sbl-train ------------------------------------------------------------------------


class SblTrain:
    """`train-corpus` at set-up, then a REPL session that learns with the
    treebank judge while training on every parse, and ends with
    `refine-grammar`."""

    name = "sbl-train"
    timer_target = ("Session", "parse_sentence")

    def setup(self, seed, r):
        state = State(seed, r)
        state.corpus = inputs.sbl_corpus(state.base.lexicon, seed, r)
        inputs.write_lines(state.path("corpus.txt"), state.corpus)
        triples = state.path("params.triples")
        pretrain = state.path("pretrain.txt")
        with open(triples, "w", encoding="utf-8") as f:
            f.write("params delta %r omega %r\n" % (inputs.SBL_DELTA, inputs.SBL_OMEGA))
        inputs.write_lines(pretrain, inputs.pretraining_corpus(seed, r))
        cli.run_repl(state.base, ["load-triples " + _q(triples), LIMITS, "train-corpus " + _q(pretrain)])
        return state

    def prepare(self, state):
        corpus = state.corpus
        path = state.path("corpus.txt")
        base = state.base.store
        store = TripleStore(base.delta, base.omega)
        for t in base.triples:
            store.add(t.mother, t.daughter, t.freq)
        session = state.session(store=store)
        lines = [
            "set learning on", "set hfc on", "set sbl on", "set training on", LIMITS,
            "learn-corpus " + _q(path), "refine-grammar",
        ]
        return {"corpus": corpus, "session": session, "lines": lines, "total0": store.total}

    def run(self, state, prep):
        cli.run_repl(prep["session"], prep["lines"])

    def inputs_of(self, prep):
        return len(prep["corpus"])

    def check(self, state, prep, records):
        session = prep["session"]
        grammar = session.grammar
        problems = _repl_errors(session)
        attempted = len(prep["corpus"]) + 1
        if [" ".join(r.tokens) for r in records] != prep["corpus"]:
            problems.append("the session did not parse the corpus line by line")
            return problems, attempted, 0, {}
        fed = state.pretrain_pairs + sum(r.pairs for r in records)
        if session.store.total != fed:
            problems.append("store total %d, pairs fed %d" % (session.store.total, fed))
        accepted = sum(r.accepted for r in records)
        judged = sum(r.judged for r in records)
        if not accepted or not judged:
            problems.append("judge accepted %d and rejected %d" % (accepted, judged))
        problems += _common_checks(grammar, session.lexicon, records)
        text = session.out.getvalue()
        again = refine_grammar(session.store, grammar, RefineParams(), session.registry, session.labels)
        if again:
            problems.append("a second refine_grammar reported %d line(s)" % len(again))
        out = _outcomes(records)
        out.update(
            rules_retained=len(grammar.learnt),
            judge_accepts=accepted,
            judge_rejects=judged,
            refined=text.count(" Refining "),
            deleted=text.count(" Deleting "),
            store_total=session.store.total,
        )
        return problems, attempted, 0, out


WORKLOADS = {w.name: w for w in (Learn(), Eval(), SblTrain())}
