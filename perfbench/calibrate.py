"""A fixed reference computation that gauges how fast the host runs Python now.

The benchmark runs on a few cores of a shared host.  The same op on the same
input can take a quarter more or less from one minute to the next, and
single timings of a fixed computation cluster round two values about 1.7
times apart.  ``reference()`` does the same work on every call: a subset
construction and a breadth-first search over a fixed, seeded automaton,
written here so that no change to the library can change it.  It makes and
drops the same kinds of objects the library does (ints, tuples, frozensets,
dicts and sets), so what slows an op on the host slows it too.

The benchmark times ``reference()`` before each op and reports times scaled
by ``NOMINAL_S / typical(reference times)``: what they would be on the host
at the speed at which ``reference()`` takes ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# typical() of reference() times on a 2-core Intel Xeon VM (CPython 3.11.7).
NOMINAL_S = 0.0045

_STATES, _LABELS = 14, 4
_rng = random.Random(20240229)
_EDGES = {
    (s, a): tuple(sorted(_rng.sample(range(_STATES), _rng.randint(0, 3))))
    for s in range(_STATES) for a in range(_LABELS)
}


def _determinize() -> dict:
    init = frozenset({0})
    index = {init: 0}
    todo = [init]
    trans = {}
    while todo:
        subset = todo.pop()
        i = index[subset]
        for a in range(_LABELS):
            target = frozenset(t for s in subset for t in _EDGES[(s, a)])
            if target not in index:
                index[target] = len(index)
                todo.append(target)
            trans[(i, a)] = index[target]
    return trans


def _shortest_words(trans: dict) -> int:
    seen = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for s in frontier:
            for a in range(_LABELS):
                t = trans[(s, a)]
                if t not in seen:
                    seen[t] = seen[s] + (a,)
                    nxt.append(t)
        frontier = nxt
    return sum(map(len, seen.values()))


def reference() -> int:
    """The fixed computation; returns a checksum that never changes."""
    return _shortest_words(_determinize())


def timed_reference() -> float:
    """Seconds one ``reference()`` takes, with the cyclic garbage collector off
    so that its time does not depend on how many objects the caller holds."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def typical(times: list[float]) -> float:
    """The mean reference time, without the fastest and slowest 5 %.

    A mean, not a median: single timings cluster round a fast and a slow
    value, and a median jumps from one to the other as the share of fast
    timings crosses one half.  The mean moves with that share, as the time
    of a longer op does."""
    ordered = sorted(times)
    cut = len(ordered) // 20
    return statistics.fmean(ordered[cut:len(ordered) - cut])
