"""Conformance checking: direct ioco and language-based checking with suites.

Two independent decision routes are provided on purpose.  ``check_ioco`` walks
the synchronized product of the determinized specification and implementation
and reports the first output (or quiescence) the implementation offers that
the specification does not.  ``check_lang`` builds a fault-suite automaton
from desirable/forbidden languages (D, F) and searches the implicit product of
the determinized implementation and that suite; a transition cover explores
that product whole, still without building it, by its own walk on int pair
keys that keeps every move in one flat edge list.  With D = otr(spec) extended
by one output and F empty it coincides with ioco, which the test suite
exploits as a cross-oracle and ``check_ioco`` uses for its transition cover.
Both routes open with one entry step, ``_open``, that checks their inputs once.

The single-witness searches step det models on demand (``iolts._Stepped``, as
the runs of ``testrun`` do), only the subsets they reach, in the order of the
whole det models, so the witness is the same.  ``check_lang`` moves by the
product rule of ``fsa``; ``check_ioco`` keeps its own, for its FAIL move.
det(spec) of a suite is whole, and the cover is the one walk that builds
det(IUT) whole.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import AlphabetMismatchError
from .fsa import (
    Dfsa,
    _first_word,
    _product_moves,
    _require_shared_alphabet,
    _search_dfsa,
    empty_language,
)
from .iolts import FAIL, Iolts, _Stepped, determinize, ensure_quiescence

WITNESS_STRATEGIES = ("single", "cover")


@dataclass(frozen=True)
class SuiteStats:
    """Automaton sizes behind a verdict; suite fields are None when no suite
    automaton was built (the direct ioco path).

    ``spec_states`` and ``iut_states`` are whole det sizes where the verdict
    builds that det model whole, else the subsets its search stepped (0 on the
    IUT side of ``check_lang`` when the empty word is the fault)."""

    spec_states: int
    iut_states: int
    alphabet_size: int
    d_states: int | None = None
    f_states: int | None = None
    suite_states: int | None = None


@dataclass(frozen=True)
class Verdict:
    conforms: bool
    witnesses: tuple[tuple[str, ...], ...]
    stats: SuiteStats

    def __post_init__(self):
        if self.conforms and self.witnesses:
            raise ValueError("conforming verdict cannot carry witnesses")


def verdict_json(v: Verdict, relation: str) -> dict:
    """The machine-readable verdict shape written by the CLI."""
    return {
        "relation": relation,
        "conforms": v.conforms,
        "witnesses": [list(w) for w in v.witnesses],
        "stats": asdict(v.stats),
    }


def _open(spec: Iolts, iut: Iolts, witness: str) -> tuple[Iolts, Iolts]:
    """The entry step of a verdict: check the witness strategy and the pair's
    alphabets (delta aside); return both quiescence completions."""
    if witness not in WITNESS_STRATEGIES:
        raise ValueError(f"unknown witness strategy {witness!r}")
    cs, ci = ensure_quiescence(spec), ensure_quiescence(iut)  # both gain delta
    if set(cs.inputs) != set(ci.inputs) or set(cs.outputs) != set(ci.outputs):
        raise AlphabetMismatchError("specification and implementation alphabets differ")
    return cs, ci


def check_ioco(spec: Iolts, iut: Iolts, witness: str = "single") -> Verdict:
    """Decide whether every implementation output after a specification trace
    is allowed by the specification (quiescence included).

    Both models are quiescence-completed if needed.  Exploration follows the
    synchronized product of the determinized models: outputs advance only when
    enabled on both sides (an implementation-only output is a fault), inputs
    advance only when enabled on both sides, and implementation states lacking
    a specified input silently truncate exploration (no obligation there).
    Both models are determinized on demand, as far as the search reaches.

    ``witness`` selects "single" (shortest fault word) or "cover": once a
    fault is found, ``check_lang`` with D = ``ioco_desirable_language(spec)``
    and F empty, whose transition cover gives several words per fault region.
    """
    cs, ci = _open(spec, iut, witness)
    alphabet, outputs = cs.observable_alphabet, set(cs.outputs)
    spec_rows, iut_rows = _Stepped(cs), _Stepped(ci)

    def moves(pair):
        s, q = pair
        spec_row, iut_row = spec_rows[s], iut_rows[q]
        for tok in alphabet:
            q2 = iut_row.get(tok)
            if q2 is None:
                continue
            s2 = spec_row.get(tok)
            if s2 is not None:
                yield tok, (s2, q2)
            elif tok in outputs:
                yield tok, FAIL  # the multigraph's fail node

    first_fault = _first_word((spec_rows.start, iut_rows.start), moves,
                              lambda key: key is FAIL)
    stats = SuiteStats(len(spec_rows), len(iut_rows), len(alphabet))
    if first_fault is None:
        return Verdict(True, (), stats)
    if witness == "single":
        return Verdict(False, (first_fault,), stats)
    return check_lang(spec, iut, ioco_desirable_language(spec),
                      empty_language(alphabet), "cover")


def ioco_desirable_language(spec: Iolts) -> Dfsa:
    """The language otr(spec)·(outputs ∪ {delta}), the D that makes
    language-based checking coincide with ioco when F is empty."""
    cs = ensure_quiescence(spec)
    spec_det = determinize(cs)
    outputs = set(cs.outputs)

    # States are (det state, last-token-was-output); the one extra accepting
    # state FAIL catches spec traces extended by an output the spec does not
    # enable.
    def moves(node):
        if node is FAIL:
            return
        for tok in spec_det.alphabet:
            t = spec_det.step(node[0], tok)
            if t is not None:
                yield tok, (t, tok in outputs)
            elif tok in outputs:
                yield tok, FAIL

    return _search_dfsa(spec_det.alphabet, (spec_det.initial, False), moves,
                        lambda node: node is FAIL or node[1])


def build_fault_suite(spec: Iolts, d: Dfsa, f: Dfsa) -> Dfsa:
    """The complete suite automaton accepting every fault-revealing word:
    (L(d) minus otr(spec)) plus (L(f) inside otr(spec)).

    It is built in one breadth-first pass over keys (spec, D, F state), a
    missing move going to a sink, with no intermediate completion or product.
    State count stays within (n+1)^2 * |d| * |f| for n the determinized
    specification size and |d|, |f| the completed operand sizes.
    """
    spec_det = determinize(ensure_quiescence(spec))
    if set(d.alphabet) != set(spec_det.alphabet) or set(f.alphabet) != set(spec_det.alphabet):
        raise AlphabetMismatchError("desirable/forbidden languages must range over the "
                                    "specification's observable alphabet (delta included)")
    # Keys (spec, D, F state) in F's alphabet order, as union(intersect(F, spec),
    # intersect(D, complement(spec))) has them once completed.  None is the sink
    # of a missing move: no (None, token) pair is a transition, so it stays put.
    # A key accepts if forbidden and specified, or desirable and unspecified.
    s_step, d_step, f_step = spec_det.transitions.get, d.transitions.get, f.transitions.get

    def moves(key):
        s, x, y = key
        return [(tok, (s_step((s, tok)), d_step((x, tok)), f_step((y, tok))))
                for tok in f.alphabet]

    return _search_dfsa(f.alphabet, (spec_det.initial, d.initial, f.initial), moves,
                        lambda k: k[2] in f.accepting if k[0] in spec_det.accepting
                        else k[1] in d.accepting)


def check_lang(spec: Iolts, iut: Iolts, d: Dfsa, f: Dfsa,
               witness: str = "single") -> Verdict:
    """Language-based conformance: no implementation trace may be desirable-
    but-unspecified or forbidden-but-specified."""
    cs, ci = _open(spec, iut, witness)
    suite = build_fault_suite(spec, d, f)
    completed_sizes = (a.n_states + (len(a.transitions) != a.n_states * len(a.alphabet))
                       for a in (d, f))  # complete(a).n_states, without completing
    if witness == "cover":
        di = determinize(ci)
        # ties break in the suite's order, not the IUT's
        di = Dfsa._built(suite.alphabet, di.n_states, di.initial, di.accepting,
                         di.transitions, di.complete)
        words = tuple(witnesses_transition_cover(di, suite))
        iut_states = di.n_states
    else:
        # search suite x det(IUT) unbuilt, det(IUT) on demand; every det(IUT)
        # state accepts, and ties break in the suite's order, not the IUT's
        iut_rows = _Stepped(ci)
        w = _first_word((suite.initial, iut_rows.start), _product_moves(suite, iut_rows),
                        lambda key: key[0] in suite.accepting)
        words, iut_states = () if w is None else (w,), len(iut_rows)
    stats = SuiteStats(determinize(cs).n_states, iut_states, len(suite.alphabet),
                       *completed_sizes, suite.n_states)
    return Verdict(not words, words, stats)


def witnesses_transition_cover(iut: Dfsa, suite: Dfsa) -> list[tuple[str, ...]]:
    """Accepted product words covering every transition on some fault path.

    A transition of the reachable iut x suite product is fault-relevant when
    it lies on some path from the initial to an accepting state.  Each one
    contributes its least shortest fault word, the least shortest word to its
    source, then its token, then the least shortest word from its target to
    acceptance ("least" in ``iut.alphabet`` order).  Each distinct word comes
    out once, shortest first, ties broken in ``iut.alphabet`` order, the empty
    word first when the initial state accepts; the list is empty iff the
    product language is.  The product is walked by the search core's rule
    (``fsa._explore``: breadth-first, moves in alphabet order), on int keys.
    """
    _require_shared_alphabet(iut, suite)
    alphabet, nb, k = iut.alphabet, suite.n_states, len(iut.alphabet)
    # Key qa * nb + qb is the pair (qa, qb); product state i is keys[i], 0 the
    # initial one.  IUT rows hold (rank, target * nb); the suite is one flat
    # list indexed qb * k + rank, -1 for no move.  Words spell ranks as code
    # points, to concatenate and compare as strings, and tokens on return.
    ranks = [chr(r) for r in range(k)]
    a_step, b_step = iut.transitions.get, suite.transitions.get
    rows = [[(r, t * nb) for r, tok in enumerate(alphabet)
             if (t := a_step((qa, tok))) is not None] for qa in range(iut.n_states)]
    b_rows = [b_step((qb, tok), -1) for qb in range(nb) for tok in alphabet]
    # prefix[i] follows first-discovery edges: shortest, and least in alphabet
    # order.  edges holds src, rank, dst of every move, in search order.
    keys, prefix, edges = [iut.initial * nb + suite.initial], [""], []
    index = {keys[0]: 0}
    for i, key in enumerate(keys):  # keys grows while we walk it
        qa, qb = divmod(key, nb)
        row = qb * k
        for r, ta in rows[qa]:
            tb = b_rows[row + r]
            if tb < 0:
                continue
            nxt = ta + tb
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(keys)
                keys.append(nxt)
                prefix.append(prefix[i] + ranks[r])
            edges += (i, r, j)
    src, rank, dst = edges[0::3], edges[1::3], edges[2::3]
    # distance to acceptance, breadth-first backwards from the accepting states
    dist = [0 if key // nb in iut.accepting and key % nb in suite.accepting else -1
            for key in keys]
    order = [s for s, d in enumerate(dist) if not d]
    if not order:
        return []
    preds: list[list[int]] = [[] for _ in keys]
    for s, d in zip(src, dst):
        preds[d].append(s)
    for s in order:  # order grows while we walk it
        for p in preds[s]:
            if dist[p] < 0:
                dist[p] = dist[s] + 1
                order.append(p)
    # word(src, rank) = prefix[src] + rank + suffix[dst].  The suffix follows
    # each state's first move in alphabet order that gets one step closer
    # (down), found in one pass over the edges in search order.
    down, suffix = [-1] * len(keys), [""] * len(keys)
    for s, r, d in zip(src, rank, dst):
        if down[s] < 0 and dist[s] > 0 and dist[d] == dist[s] - 1:
            down[s] = d
            suffix[s] = ranks[r]  # the rest follows by increasing distance
    for s in order:
        if dist[s]:
            suffix[s] += suffix[down[s]]
    words = list({prefix[s] + ranks[r] + suffix[d]
                  for s, r, d in zip(src, rank, dst) if dist[d] >= 0})
    # shortest first, ties by rank: two stable sorts; an accepting initial
    # state makes the empty word the shortest fault
    words.sort()
    words.sort(key=len)
    if dist[0] == 0:
        words.insert(0, "")
    spell = dict(zip(ranks, alphabet)).__getitem__
    return [tuple(map(spell, w)) for w in words]
