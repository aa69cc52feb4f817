"""Spans around the calls into gramgrow's layers, recorded from outside.

`Tracer.install()` replaces module functions and class methods of the
package with wrappers; nothing under `src/` changes.  A function imported by
name into other modules (`from .fs import unify`) is replaced at every
binding, so calls through any module are seen.  Each call records one span:
name, start, end, parent span (the innermost open span) and input id.  The
spans stay in memory in flat arrays and are written out by `dump()`.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# input ids of spans that belong to no single input
SETUP = -2
NO_INPUT = -1

# Span name -> (module, attribute) or (module, class, method).  The names
# are the metric prefixes; two targets may share one name.
TARGETS = [
    ("fs.unify", ("fs", "unify")),
    ("fs.clashes", ("fs", "clashes")),
    ("fs.fs_from_pairs", ("fs", "fs_from_pairs")),
    ("fs.unify_cat", ("fs", "unify_cat")),
    ("fs.simplify", ("fs", "simplify")),
    ("fs.subsumes", ("fs", "subsumes")),
    ("fs.expand", ("fs", "expand")),
    ("fs.parse_fs", ("fs", "parse_fs")),
    ("chart.parse", ("chart", "ChartParser", "parse")),
    ("chart.propose", ("chart", "ChartParser", "propose")),
    ("chart.extend", ("chart", "ChartParser", "extend")),
    ("chart.seed_super", ("chart", "ChartParser", "seed_super")),
    ("chart.criticise", ("chart", "ChartParser", "criticise")),
    ("chart.extract_trees", ("chart", "ChartParser", "extract_trees")),
    ("model.criticise_rhs", ("model", "criticise_rhs")),
    ("constructor.construct", ("constructor", "construct_unary_cat")),
    ("constructor.construct", ("constructor", "construct_binary_cat")),
    ("grammar.add_learnt", ("grammar", "Grammar", "add_learnt")),
    ("grammar.subsumer_of", ("grammar", "Grammar", "subsumer_of")),
    ("grammar.rule_subsumes", ("grammar", "rule_subsumes")),
    ("grammar.load_rules", ("grammar", "Grammar", "load_rules")),
    ("scoring.lookup", ("scoring", "TripleStore", "lookup")),
    ("scoring.add", ("scoring", "TripleStore", "add")),
    ("scoring.score_local", ("scoring", "score_local")),
    ("scoring.judge", ("scoring", "judge")),
    ("refine.refine_grammar", ("refine", "refine_grammar")),
    ("evaluate.undergen", ("evaluate", "undergen")),
    ("evaluate.overgen", ("evaluate", "overgen")),
    ("evaluate.plausibility", ("evaluate", "plausibility")),
    ("evaluate.match_parse", ("evaluate", "match_parse")),
    ("cli.run_repl", ("cli", "run_repl")),
    ("cli.parse_sentence", ("cli", "Session", "parse_sentence")),
    ("cli.cmd_eval", ("cli", "cmd_eval")),
]

# The per-layer metrics a traced run reports: (name, unit, better).
METRICS = [
    ("fs.unify.calls", "count", "lower"),
    ("fs.unify.failed", "count", "lower"),
    ("fs.unify.self_s", "s", "lower"),
    ("fs.clashes.calls", "count", "lower"),
    ("fs.clashes.hits", "count", "higher"),
    ("fs.fs_from_pairs.calls", "count", "lower"),
    ("fs.fs_from_pairs.self_s", "s", "lower"),
    ("fs.unify_cat.calls", "count", "lower"),
    ("fs.unify_cat.self_s", "s", "lower"),
    ("fs.simplify.calls", "count", "lower"),
    ("fs.simplify.self_s", "s", "lower"),
    ("fs.subsumes.calls", "count", "lower"),
    ("fs.subsumes.self_s", "s", "lower"),
    ("fs.expand.calls", "count", "lower"),
    ("fs.expand.self_s", "s", "lower"),
    ("fs.parse_fs.self_s", "s", "lower"),
    ("chart.parse.calls", "count", "lower"),
    ("chart.parse.self_s", "s", "lower"),
    ("chart.edges", "count", "lower"),
    ("chart.instances", "count", "lower"),
    ("chart.bounded", "count", "lower"),
    ("chart.propose.calls", "count", "lower"),
    ("chart.extend.calls", "count", "lower"),
    ("chart.seed_super.self_s", "s", "lower"),
    ("chart.criticise.calls", "count", "lower"),
    ("chart.criticise.self_s", "s", "lower"),
    ("chart.extract_trees.self_s", "s", "lower"),
    ("model.criticise_rhs.calls", "count", "lower"),
    ("model.criticise_rhs.self_s", "s", "lower"),
    ("constructor.construct.calls", "count", "lower"),
    ("constructor.construct.self_s", "s", "lower"),
    ("grammar.add_learnt.calls", "count", "lower"),
    ("grammar.add_learnt.self_s", "s", "lower"),
    ("grammar.subsumer_of.self_s", "s", "lower"),
    ("grammar.rule_subsumes.calls", "count", "lower"),
    ("grammar.load_rules.self_s", "s", "lower"),
    ("scoring.lookup.calls", "count", "lower"),
    ("scoring.lookup.self_s", "s", "lower"),
    ("scoring.compat_tests", "count", "lower"),
    ("scoring.add.calls", "count", "lower"),
    ("scoring.add.self_s", "s", "lower"),
    ("scoring.score_local.calls", "count", "lower"),
    ("scoring.score_local.self_s", "s", "lower"),
    ("scoring.judge.calls", "count", "lower"),
    ("scoring.judge.self_s", "s", "lower"),
    ("scoring.cap_hits", "count", "lower"),
    ("refine.refine_grammar.self_s", "s", "lower"),
    ("evaluate.undergen.self_s", "s", "lower"),
    ("evaluate.overgen.self_s", "s", "lower"),
    ("evaluate.plausibility.self_s", "s", "lower"),
    ("evaluate.match_parse.calls", "count", "lower"),
    ("evaluate.match_parse.self_s", "s", "lower"),
    ("cli.run_repl.self_s", "s", "lower"),
    ("cli.parse_sentence.self_s", "s", "lower"),
    ("cli.cmd_eval.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Spans of these names are counted over set-up, whose cost they should move.
SETUP_SPANS = ("fs.parse_fs", "grammar.load_rules")

# A span's flag records the outcome these calls are counted by.
FLAGGED = {
    "fs.unify": lambda r: r is None,  # failed
    "fs.clashes": lambda r: r is True,  # prefilter hit
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.input = array("i")
        self.flag = array("b")
        self.results = []  # (span, edges, instances, bounded, cap_hits) per chart.parse
        self.input_id = NO_INPUT
        self._stack = []
        self._undo = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        flag = FLAGGED.get(name)
        is_parse = name == "chart.parse"
        start, end, names, parent, inputs, flags = (
            self.start, self.end, self.name, self.parent, self.input, self.flag,
        )
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            inputs.append(self.input_id)
            flags.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if flag is not None and flag(result):
                flags[idx] = 1
            if is_parse:
                self.results.append((
                    idx,
                    result.edges_created,
                    sum(len(e.instances) for e in result.chart.edges),
                    int(result.resource_bounded),
                    result.cap_hits,
                ))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at every binding inside the gramgrow package."""
        modules = [m for n, m in sys.modules.items() if n == "gramgrow" or n.startswith("gramgrow.")]
        for name, target in TARGETS:
            mod = sys.modules["gramgrow." + target[0]]
            if len(target) == 3:
                cls = getattr(mod, target[1])
                original = cls.__dict__[target[2]]
                setattr(cls, target[2], self._wrap(name, original))
                self._undo.append((cls, target[2], original))
                continue
            original = getattr(mod, target[1])
            wrapped = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- derived figures -------------------------------------------------------

    def metrics(self, overhead_pct):
        """Every per-layer metric: counts and self times over the timed phase
        (set-up for SETUP_SPANS), chart figures from the returned results."""
        timed, compat, parses = self.summary(keep=lambda i: i != SETUP)
        setup, _, _ = self.summary(keep=lambda i: i == SETUP)
        values = {
            "chart.edges": sum(p[1] for p in parses),
            "chart.instances": sum(p[2] for p in parses),
            "chart.bounded": sum(p[3] for p in parses),
            "scoring.cap_hits": sum(p[4] for p in parses),
            "scoring.compat_tests": compat,
            "fs.unify.failed": timed.get("fs.unify", [0, 0, 0.0])[1],
            "fs.clashes.hits": timed.get("fs.clashes", [0, 0, 0.0])[1],
            "trace.overhead_pct": overhead_pct,
        }
        out = {}
        for name, unit, _ in METRICS:
            if name not in values:
                span, _, kind = name.rpartition(".")
                calls, _, self_s = (setup if span in SETUP_SPANS else timed).get(span, [0, 0, 0.0])
                values[name] = calls if kind == "calls" else self_s
            out[name] = {"value": values[name], "unit": unit}
        return out

    def summary(self, keep):
        """Per span name: calls, flagged calls and self seconds, over the spans
        whose input id passes `keep`; plus fs calls made from scoring."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: [0, 0, 0.0] for name in self.names}
        scoring_ids = {i for i, name in enumerate(self.names) if name.startswith("scoring.")}
        fs_ids = {i for i, name in enumerate(self.names) if name.startswith("fs.")}
        compat = 0
        for i in range(n):
            if not keep(self.input[i]):
                continue
            s = stats[self.names[self.name[i]]]
            s[0] += 1
            s[1] += self.flag[i]
            s[2] += (self.end[i] - self.start[i]) - child[i]
            p = self.parent[i]
            if p >= 0 and self.name[i] in fs_ids and self.name[p] in scoring_ids:
                compat += 1
        parses = [r for r in self.results if keep(self.input[r[0]])]
        return stats, compat, parses

    def dump(self, path, meta):
        """Write the spans: a JSON header line, then one tab-separated line per
        span (name, start, end, parent, input)."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(dict(meta, names=self.names, spans=len(self.start))) + "\n")
            names = self.names
            for i in range(len(self.start)):
                f.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.input[i],
                ))
