"""The gramgrow benchmark.

    python3 bench/run.py --workload learn|eval|sbl-train --seed N --seconds S --trace 0|1

With `--trace 0` whole rounds run until S seconds have passed and at least
TAIL_SAMPLES inputs were timed.  Before each round the workload is set up
afresh, repeatedly while that is cheap, and the median of all set-ups is
`setup_s`.  After each round its outputs are checked apart from the chart
parser.  Every end-to-end time is read on `refclock.Clock`, which scales
wall time to the machine's nominal speed; the plain wall times are printed
too, on the line before the result.  With `--trace 1`, set-up and round 0
run once untraced and once traced, and the per-layer metrics come from the
traced pass.  The last line of standard output is the result object; the line
before it holds the run's outcome counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import _env  # noqa: E402
import refclock  # noqa: E402

# `sentence_tail_ms` is this percentile of the per-input times; a run times
# at least TAIL_SAMPLES inputs, so that ten or more lie beyond it
TAIL_PERCENTILE = 90
TAIL_SAMPLES = 100
SETUP_SECONDS_PER_ROUND = 0.25
MAX_SETUP_REPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "sentences_per_s": "1/s",
    "sentence_p50_ms": "ms",
    "sentence_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class InputTimer:
    """Times each call of the workload's per-input entry point and keeps a
    `Record` of its result.  The wrapper is installed from outside, on
    `cli.Session.parse_sentence` or on the `parse` that `evaluate` calls.
    Each call is timed on `clock`, so the times are scaled ones; the plain
    wall times are kept as well.  A long call is cut into intervals of about
    `refclock.TICK_S` by marks from a second wrapper, on
    `chart.ChartParser.propose`, which every parse calls once per inactive
    edge."""

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.times = []
        self.raw_times = []
        self.records = []
        self.tracer = None
        self.setup_phase = False
        self._owner = None
        self._propose = None

    def install(self):
        from gramgrow import cli, evaluate
        from workloads import Record

        owner_name, attr = self.workload.timer_target
        owner = cli.Session if owner_name == "Session" else evaluate
        original = vars(owner)[attr]
        per_sentence = owner_name == "Session"

        def timed(*args, **kwargs):
            tracer = self.tracer
            if tracer is not None and not self.setup_phase:
                tracer.input_id = len(self.times)
            clock = self.clock
            clock.mark()
            s0 = clock.phase
            t0 = perf_counter()
            result = original(*args, **kwargs)
            raw = perf_counter() - t0
            clock.mark()
            dt = clock.phase - s0
            if tracer is not None and not self.setup_phase:
                tracer.input_id = -1
            if not self.setup_phase:
                self.times.append(dt)
                self.raw_times.append(raw)
            if per_sentence:
                session, text = args[0], args[1]
                training = session.flags.training and session.store is not None
                self.records.append(Record(text.split(), result, session.grammar, training))
            else:
                self.records.append(Record(list(args[0]), result, args[1], False))
            return result

        setattr(owner, attr, timed)
        self._owner = (owner, attr, original)
        if self.clock.scaled:
            from gramgrow.chart import ChartParser

            propose = vars(ChartParser)["propose"]
            clock = self.clock

            def ticking(*args, **kwargs):
                if clock.due():
                    clock.mark()
                return propose(*args, **kwargs)

            ChartParser.propose = ticking
            self._propose = propose

    def uninstall(self):
        owner, attr, original = self._owner
        setattr(owner, attr, original)
        if self._propose is not None:
            from gramgrow.chart import ChartParser

            ChartParser.propose = self._propose
            self._propose = None

    def take(self):
        times, records = self.times, self.records
        self.times, self.records = [], []
        return times, records

    def take_raw(self):
        raw, self.raw_times = self.raw_times, []
        return raw


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timed_setup(workload, seed, r, timer):
    timer.setup_phase = True
    timer.clock.start()
    state = workload.setup(seed, r)
    dt, _ = timer.clock.stop()
    _, records = timer.take()
    state.pretrain_pairs = sum(rec.pairs for rec in records)
    timer.setup_phase = False
    return state, dt


def run_round(workload, state, timer):
    prep = workload.prepare(state)
    timer.clock.start()
    workload.run(state, prep)
    wall, _ = timer.clock.stop()
    times, records = timer.take()
    return prep, wall, times, records


def measure(workload, seed, seconds, timer, out):
    walls, times, n_inputs, setups = [], [], 0, []
    raw_walls, raw_times = [], []
    problems, attempted, failed, outcomes = [], 0, 0, []
    t_check = 0.0
    t_start = perf_counter()
    while not walls or perf_counter() - t_start < seconds or len(times) < TAIL_SAMPLES:
        r = len(walls)
        # set-up before every round, repeated while it is cheap, so that the
        # median of `setup_s` samples the whole run as the rounds do
        t_setup = perf_counter()
        for rep in range(1, MAX_SETUP_REPS + 1):
            state, dt = timed_setup(workload, seed, r, timer)
            setups.append(dt)
            if perf_counter() - t_setup >= SETUP_SECONDS_PER_ROUND or rep == MAX_SETUP_REPS:
                break
            shutil.rmtree(state.tmp, ignore_errors=True)
        prep, wall, t, records = run_round(workload, state, timer)
        walls.append(wall)
        times += t
        raw_walls.append(timer.clock.phase_raw)
        raw_times += timer.take_raw()
        n_inputs += workload.inputs_of(prep)
        # the high-water mark before this round's checks; the checks keep
        # nothing past the round, so earlier ones stay below the program's
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t0 = perf_counter()
        if len(t) != workload.inputs_of(prep):
            problems.append("round %d timed %d inputs of %d" % (r, len(t), workload.inputs_of(prep)))
        p, a, f, o = workload.check(state, prep, records)
        t_check += perf_counter() - t0
        problems += ["round %d: %s" % (r, x) for x in p]
        attempted += a
        failed += f
        outcomes.append(o)
        if r == 0 and "tsv" in prep:
            out["tsv_sha256"] = hashlib.sha256(prep["tsv"]).hexdigest()
        shutil.rmtree(state.tmp, ignore_errors=True)
        del prep, records, state
    out.update(rounds=len(walls), inputs=n_inputs, setup_reps=len(setups), outcomes_round0=outcomes[0],
               timed_s=round(sum(walls), 3), check_s=round(t_check, 3), wall_s=round(perf_counter() - t_start, 3),
               raw_timed_s=round(sum(raw_walls), 3),
               raw_sentences_per_s=round(n_inputs / sum(raw_walls), 4),
               raw_sentence_p50_ms=round(1000 * statistics.median(raw_times), 3),
               raw_sentence_tail_ms=round(1000 * percentile(raw_times, TAIL_PERCENTILE), 3))
    metrics = {
        "setup_s": statistics.median(setups),
        "sentences_per_s": n_inputs / sum(walls),
        "sentence_p50_ms": 1000 * statistics.median(times),
        "sentence_tail_ms": 1000 * percentile(times, TAIL_PERCENTILE),
        "peak_rss_mb": peak_kb / 1024,
    }
    return problems, attempted, failed, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def untraced_round0(workload, seed, timer):
    """Set-up and round 0 as a plain run does them: (wall, .tsv bytes)."""
    state, _ = timed_setup(workload, seed, 0, timer)
    prep, wall, _, _ = run_round(workload, state, timer)
    tsv = None
    if "out" in prep:
        with open(prep["out"] + ".tsv", "rb") as f:
            tsv = f.read()
    shutil.rmtree(state.tmp, ignore_errors=True)
    return wall, tsv


def traced(workload, seed, timer, out, spans_path):
    import trace

    # the traced pass sits between two untraced ones, so that a drift in
    # machine speed does not pass for tracing overhead
    plain_wall, plain_tsv = untraced_round0(workload, seed, timer)

    tracer = trace.Tracer()
    timer.uninstall()
    tracer.install()
    timer.install()
    timer.tracer = tracer
    try:
        tracer.input_id = trace.SETUP
        state, _ = timed_setup(workload, seed, 0, timer)
        prep = workload.prepare(state)
        tracer.input_id = trace.NO_INPUT
        t0 = perf_counter()
        workload.run(state, prep)
        traced_wall = perf_counter() - t0
        _, records = timer.take()
    finally:
        timer.uninstall()
        tracer.uninstall()
        timer.tracer = None
        timer.install()
    problems, attempted, failed, outcomes = workload.check(state, prep, records)
    shutil.rmtree(state.tmp, ignore_errors=True)
    plain_wall = (plain_wall + untraced_round0(workload, seed, timer)[0]) / 2
    out.update(rounds=1, outcomes_round0=outcomes)
    if "tsv" in prep:
        out["tsv_sha256"] = hashlib.sha256(prep["tsv"]).hexdigest()
        problems += workload.report_problems(plain_tsv, prep["tsv"])

    metrics = tracer.metrics(100.0 * (traced_wall / plain_wall - 1.0))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.dump(spans_path, {"workload": workload.name, "seed": seed, "untraced_s": plain_wall,
                             "traced_s": traced_wall, "outcomes": outcomes})
    out["spans_file"] = os.path.relpath(spans_path, _env.ROOT)
    return problems, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="the gramgrow benchmark")
    ap.add_argument("--workload", required=True, choices=("learn", "eval", "sbl-train"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    try:
        _env.import_gramgrow()
    except (_env.MissingProgram, ImportError) as err:
        print("bench: %s" % err, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[ns.workload]
    # the traced pass reads plain wall time: probes would sit inside its spans
    timer = InputTimer(workload, refclock.Clock(scaled=not ns.trace))
    timer.install()
    info = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace}
    if ns.trace:
        spans = os.path.join(_env.OUT_DIR, "spans-%s.tsv" % ns.workload)
        problems, attempted, failed, metrics = traced(workload, ns.seed, timer, info, spans)
    else:
        problems, attempted, failed, metrics = measure(workload, ns.seed, ns.seconds, timer, info)
    timer.uninstall()
    for p in problems:
        print("CHECK FAILED: %s" % p, file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
