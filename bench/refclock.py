"""A clock that reads time at a fixed reference speed of the machine.

The host this benchmark was written on slows a single pure-Python thread by
up to 30 % for tens of seconds at a time, with steal time near zero, so the
slowdown shows in CPU time as much as in wall time.  Runs of the same code
minutes apart then differ by more than any change worth measuring.  Two
unrelated pure-Python kernels, timed alternately every few milliseconds,
slow down together: their ratio varied by 2 % where each varied by 11 %.

So every timed interval is bracketed by two probes.  A probe times a fixed
amount of reference work: graph unification over small slot objects,
dicts and frozensets, the kind of work gramgrow does, but written here and
never changed.  The interval's length is scaled by the mean of the two
probes' speed factors, `NOMINAL_PROBE_S / probe_s`, which is 1 when the
machine runs the reference work at its nominal speed.  The result is the
interval's wall time as it would read at that speed.  Probes run outside
the intervals they bracket, so their own time is never counted.
"""

from __future__ import annotations

import random
from time import perf_counter

# The nominal time of one probe's work, in seconds.  On the 2-core VM that
# the reference figures in README.md come from, its quartiles over 20 s were
# 2.7 ms and 4.0 ms and its median 3.7 ms.  A different value would scale
# every time by the same factor and change no comparison.
NOMINAL_PROBE_S = 0.0035

# A timed call longer than this is cut into intervals about this long, each
# scaled by its own probes.
TICK_S = 0.1

_PAIRS = 32


class _Node:
    __slots__ = ("feats", "vals", "link")

    def __init__(self, feats, vals):
        self.feats = feats
        self.vals = vals
        self.link = None


def _find(n):
    while n.link is not None:
        n = n.link
    return n


def _copy(n, memo):
    c = memo.get(id(n))
    if c is None:
        c = memo[id(n)] = _Node({}, n.vals)
        for f, d in n.feats.items():
            c.feats[f] = _copy(d, memo)
    return c


def _unify(a, b):
    """Destructive unification of two copied graphs; False on a clash."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        x, y = _find(x), _find(y)
        if x is y:
            continue
        if x.vals is not None and y.vals is not None:
            vals = x.vals & y.vals
            if not vals:
                return False
            x.vals = vals
        elif y.vals is not None:
            x.vals = y.vals
        y.link = x
        for f, d in y.feats.items():
            e = x.feats.get(f)
            if e is None:
                x.feats[f] = d
            else:
                pending.append((e, d))
    return True


def _build(rng, depth, shared):
    if depth == 0 or rng.random() < 0.25:
        if shared and rng.random() < 0.3:
            return rng.choice(shared)
        n = _Node({}, frozenset(rng.sample("abcdef", rng.randint(2, 5))))
        shared.append(n)
        return n
    return _Node({f: _build(rng, depth - 1, shared) for f in rng.sample("CAT BAR AGR NUM PER CASE HEAD".split(), 3)},
                 None)


def _graphs():
    rng = random.Random(20260101)
    return [(_build(rng, 4, []), _build(rng, 4, [])) for _ in range(_PAIRS)]


_WORK = _graphs()


def reference_work():
    """The fixed work one probe times; returns how many pairs unified."""
    ok = 0
    for a, b in _WORK:
        index = {}
        for name in ("x%d" % i for i in range(40)):
            index[name] = len(name)
        if _unify(_copy(a, {}), _copy(b, {})):
            ok += 1
    return ok


def probe():
    """The machine's speed factor now: 1 at the nominal speed, below 1 when
    it runs slower."""
    t0 = perf_counter()
    reference_work()
    return NOMINAL_PROBE_S / (perf_counter() - t0)


class Clock:
    """Sums the intervals between marks, each scaled by the mean speed
    factor of the probes at its two ends.

    `start()` opens a phase, `mark()` closes the interval since the last
    mark and returns its scaled length, and `stop()` closes the last one and
    returns the phase's scaled and raw lengths.  `phase` is the scaled length
    of the phase so far.  A clock made with
    `scaled=False` does not probe and reads plain wall time.
    """

    def __init__(self, scaled=True):
        self.scaled = scaled
        self._open = None
        self.phase = 0.0
        self.phase_raw = 0.0

    def _probe(self):
        return probe() if self.scaled else 1.0

    def start(self):
        self.phase = 0.0
        self.phase_raw = 0.0
        r = self._probe()
        self._open = (perf_counter(), r)

    def mark(self):
        t = perf_counter()
        r = self._probe()
        seg = 0.0
        if self._open is not None:
            t0, r0 = self._open
            seg = (t - t0) * (r0 + r) / 2
            self.phase += seg
            self.phase_raw += t - t0
        self._open = (perf_counter(), r)
        return seg

    def due(self):
        """Whether the open interval has run for TICK_S or longer."""
        return self._open is not None and perf_counter() - self._open[0] >= TICK_S

    def stop(self):
        self.mark()
        self._open = None
        return self.phase, self.phase_raw


reference_work()
