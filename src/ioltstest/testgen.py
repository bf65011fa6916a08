"""Fault-model generation: leveled multigraph, path extraction, test purposes.

The multigraph unrolls a deterministic, quiescence-completed specification
into m*n + 1 levels (m = state bound on implementations, n = specification
states).  Within a level an edge may only move to a strictly larger state
index; self-loops and back edges drop to the next level, which forces
acyclicity.  Every output token (delta included) that a state does not enable
becomes an edge to the distinguished fail node.  Nodes are derived on demand
from one row of moves per state, so path search touches only the nodes it
reaches.  Breadth-first label paths from the initial node to fail are the
fault words, and each one is completed into a tester: deterministic,
input-enabled over the outputs-plus-delta it listens to, emitting exactly one
stimulus per state, with pass/fail terminals.  The testers and tester files of
one suite come from one builder over its alphabets, which shares their common
pieces and checks the alphabets once, at the first path.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import FormatError
from .fsa import _INT, Dfsa, _explore, _is, _Record, _require
from .iolts import (
    DELTA,
    FAIL,
    PASS,
    TAU,
    Iolts,
    _check_name,
    _read_sections,
    _serialize,
    _transition_lines,
    ensure_quiescence,
)

Node = tuple[int, int]  # (state index, level)


@dataclass(frozen=True)
class Multigraph:
    """The acyclic unfolding of a specification into m*n + 1 levels, with a
    fail sink.

    Nodes are (state, level) pairs and are not tabulated: ``rows[i]`` lists state i's
    moves in token declaration order, each to a target state or to ``"fail"``, so ``n``
    is computed, the row count; ``out`` derives a node's edges from its state's row.
    """

    m: int
    initial: Node
    rows: tuple[tuple[tuple[str, object], ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def levels(self) -> int:
        return self.m * self.n + 1

    @property
    def node_count(self) -> int:
        """All (state, level) nodes plus the fail sink."""
        return self.n * self.levels + 1

    def out(self, node: Node) -> list[tuple[str, object]]:
        """The out-edges of ``node`` in token declaration order.  A move to a
        larger state index stays on the level; any other move drops to the
        next level, and from the top level it is gone; fail edges stay."""
        i, k = node
        top = self.m * len(self.rows)
        edges = []
        for tok, j in self.rows[i]:
            if j == FAIL:
                edges.append((tok, FAIL))
            elif j > i:
                edges.append((tok, (j, k)))
            elif k < top:
                edges.append((tok, (j, k + 1)))
        return edges

    @cached_property
    def edges(self) -> dict[Node, tuple[tuple[str, object], ...]]:
        """Every node's ``out``, state-major, tabulated on first access;
        nothing in the package reads it."""
        return {(i, k): tuple(self.out((i, k)))
                for i in range(self.n) for k in range(self.levels)}

    def replay(self, word) -> list:
        """Node sequence induced by a label word; stops at fail."""
        path = [self.initial]
        node = self.initial
        for tok in word:
            if node == FAIL:
                raise ValueError("word continues past fail")
            step = dict(self.out(node))
            if tok not in step:
                raise ValueError(f"label {tok!r} undefined at node {node}")
            node = step[tok]
            path.append(node)
        return path

    @property
    def is_acyclic(self) -> bool:
        """Every edge but a fail edge climbs in (level, state) order."""
        return all(target == FAIL or target[::-1] > (k, i)
                   for i in range(self.n) for k in range(self.levels)
                   for _, target in self.out((i, k)))


def build_multigraph(spec: Iolts, m: int) -> Multigraph:
    """Unroll ``spec`` into the m*n+1 level fault multigraph.

    Requires a deterministic, quiescence-completed specification and an int m >= 1.
    """
    _require(_is(m, _INT, 1), "state bound m must be >= 1")
    if not spec.is_quiescence_completed:
        raise FormatError("multigraph construction requires a quiescence-completed model")
    if not spec.is_deterministic:
        raise FormatError("multigraph construction requires a deterministic model")
    tokens = spec.observable_alphabet
    outputs = set(spec.outputs)
    rows = []
    for i in range(len(spec.states)):
        step = dict(spec.transitions_from(i))
        rows.append(tuple((tok, step.get(tok, FAIL)) for tok in tokens
                          if tok in step or tok in outputs))
    return Multigraph(m, (spec.initial, 0), tuple(rows))


def enumerate_fault_paths(g: Multigraph, limit: int) -> list[tuple[str, ...]]:
    """Breadth-first label sequences of paths from the initial node to fail.

    Shortest paths come first; equal lengths are ordered by token declaration
    order.  Enumeration stops after ``limit`` paths.  A multigraph without
    fail edges (a specification with no outputs but delta) has none.
    """
    _require(_is(limit, _INT, 1), "path limit must be >= 1")
    paths: list[tuple[str, ...]] = []
    if not any(j == FAIL for row in g.rows for _, j in row):
        return paths  # else the search below would walk every path
    queue: deque[tuple[Node, tuple[str, ...]]] = deque([(g.initial, ())])
    while queue:
        node, word = queue.popleft()
        for tok, target in g.out(node):
            if target == FAIL:
                paths.append(word + (tok,))
                if len(paths) == limit:
                    return paths
            else:
                queue.append((target, word + (tok,)))
    return paths


def _tester_names(observed, emitted) -> set[str]:
    """A tester's action names; FormatError if its alphabets overlap, hold a reserved
    name, emit delta, or hold a name the line format cannot carry (``_check_name``)."""
    names = set(observed) | set(emitted)
    if len(names) != len(observed) + len(emitted):
        raise FormatError("test purpose alphabets overlap")
    if not names.isdisjoint((TAU, PASS, FAIL)):
        raise FormatError("reserved name used as a test purpose action")
    if DELTA in emitted:
        raise FormatError("delta belongs to the observed side of a test purpose")
    for name in (*observed, *emitted):
        _check_name(name, "test purpose")
    return names


@dataclass(frozen=True)
class TestPurpose(_Record):
    """A tester automaton: listens on the model's outputs plus delta, emits
    the model's inputs, and verdicts at the pass/fail terminals.

    Unlike a plain model, ``inputs`` legitimately contains delta here (the
    tester observes quiescence), so this is its own type rather than an Iolts.
    The constructor checks names and indices by the rules ``Iolts`` shares; ``step``
    and ``stimulus`` assume a sound tester, one ``tp_invariant_violations`` passes.
    """

    states: tuple[str, ...]
    initial: int
    inputs: tuple[str, ...]   # observed: model outputs plus delta
    outputs: tuple[str, ...]  # emitted: model inputs
    transitions: tuple[tuple[int, str, int], ...]
    pass_index: int
    fail_index: int

    def __post_init__(self):
        self._check_containers()
        if len(set(self.states)) != len(self.states):
            raise FormatError("duplicate state name in test purpose")
        names = _tester_names(self.inputs, self.outputs)
        for name in self.states:
            _check_name(name, "test purpose")
        n = len(self.states)
        self._check_moves(n, self.transitions, names, "unknown label {!r} in test purpose")
        if not (self._is_index(self.pass_index, n) and self.states[self.pass_index] == PASS
                and self._is_index(self.fail_index, n) and self.states[self.fail_index] == FAIL):
            raise FormatError("pass/fail indices must name the pass/fail states")

    @cached_property
    def _automaton(self) -> Dfsa:
        """The step table as a DFA accepting at fail, over the emitted then the
        observed tokens: the model's order of inputs, outputs, delta."""
        # the constructor has checked what Dfsa(...) would check here
        return Dfsa._built(self.outputs + self.inputs, len(self.states), self.initial,
                           frozenset({self.fail_index}),
                           {(s, label): d for s, label, d in self.transitions})

    def step(self, state: int, token: str) -> int | None:
        return self._automaton.step(state, token)

    def stimulus(self, state: int) -> str | None:
        """The first emitted token with a move at ``state``: in a sound tester
        its one stimulus, and None at pass/fail."""
        step = self._automaton.transitions
        return next((tok for tok in self.outputs if (state, tok) in step), None)


def path_to_test_purpose(path, inputs, outputs) -> TestPurpose:
    """Complete a fault-path label sequence into a full tester.

    ``inputs``/``outputs`` are the model's alphabets (delta is appended to the
    observed side automatically).  Completion adds: pass-edges for every
    unobserved output token, one pass-edge labeled with the declaration-order
    smallest input wherever the chain emits no input, and pass/fail self-loops
    on every observed token.
    """
    return _Testers(inputs, outputs).tester(path)


class _Testers:
    """The testers of one pair of model alphabets, built from pieces they all
    share: on an n-token path, state i on token ``tok`` always gets the same
    chain edge, pass edges and text lines, cached per (n, i, tok).  Each tester
    is built unchecked; the first runs the constructor's checks, which check
    the alphabets, and the others hold by construction."""

    def __init__(self, inputs, outputs):
        outputs = tuple(outputs)
        self.emitted = tuple(inputs)
        self.observed = outputs + ((DELTA,) if DELTA not in outputs else ())
        self._checked = False  # a tester passed the constructor's checks
        self._edges: dict = {}  # (n, i, tok) -> chain edge, pass edges
        self._lines: dict = {}  # (n, i, tok) -> their text lines
        self._frames: dict = {}  # n -> state names, pass/fail loops
        self._texts: dict = {}  # n -> the text before and after the chain's lines

    def tester(self, path) -> TestPurpose:
        """The tester of ``path``, checked as ``path_to_test_purpose`` checks:
        the path (``edges``), then the alphabets at the first tester built."""
        chain, passes = self.edges(path := tuple(path))
        n = len(path)
        states, loops = self._frame(n)
        tp = TestPurpose._built(states, 0, self.observed, self.emitted,
                                (*chain, *passes, *loops), n, n + 1)
        if not self._checked:
            tp.__post_init__()
            self._checked = True
        return tp

    def edges(self, path) -> tuple[list, list]:
        """The chain and pass edges of ``path``; checks inputs, path, labels, last token."""
        if not self.emitted:
            raise FormatError("a tester needs at least one input to emit")
        if not path:
            raise FormatError("fault path is empty")
        n = len(path)
        chain, passes = [], []
        for i, tok in enumerate(path):
            edge, pass_edges = self._edges_at(n, i, tok)
            chain.append(edge)
            passes += pass_edges
        if path[-1] not in self.observed:
            raise FormatError("fault path must end with an output or delta")
        return chain, passes

    def text(self, path) -> str:
        """``tp_to_text`` of the tester of ``path``, a path ``tester`` accepts,
        under a comment naming the path."""
        n = len(path)
        states, loops = self._frame(n)
        if n not in self._texts:
            self._texts[n] = (_serialize(states, 0, self.observed, self.emitted, (), ()),
                              _transition_lines(states, loops))
        chain, passes = [], []
        for i, tok in enumerate(path):
            lines = self._lines.get((n, i, tok))
            if lines is None:
                edge, pass_edges = self._edges_at(n, i, tok)
                lines = self._lines[n, i, tok] = (_transition_lines(states, (edge,)),
                                                  _transition_lines(states, pass_edges))
            chain.append(lines[0])
            passes.append(lines[1])
        head, tail = self._texts[n]
        return "".join((f"# fault path: {' '.join(path)}\n", head, *chain, *passes, tail))

    def _edges_at(self, n: int, i: int, tok: str) -> tuple:
        edges = self._edges.get((n, i, tok))
        if edges is None:
            if tok not in self.observed and tok not in self.emitted:
                raise FormatError(f"fault path label {tok!r} not in the alphabet")
            pass_edges = tuple((i, obs, n) for obs in self.observed if obs != tok)
            if tok not in self.emitted:
                # keep one stimulus per state: smallest declared input
                pass_edges += ((i, self.emitted[0], n),)
            edges = self._edges[n, i, tok] = ((i, tok, i + 1 if i + 1 < n else n + 1),
                                              pass_edges)
        return edges

    def _frame(self, n: int) -> tuple:
        frame = self._frames.get(n)
        if frame is None:
            frame = self._frames[n] = (
                tuple(f"t{i}" for i in range(n)) + (PASS, FAIL),
                tuple((t, obs, t) for t in (n, n + 1) for obs in self.observed))
        return frame


def tp_invariant_violations(tp: TestPurpose) -> list[str]:
    """Structural checks behind the tester guarantees; empty list means sound.

    Checks: determinism, input-enabledness over the observed tokens, exactly
    one stimulus per non-terminal state, acyclicity outside the terminal
    self-loops, and that neither terminal can reach the other.
    """
    problems = []
    step: dict[tuple[int, str], int] = {}
    for src, label, dst in tp.transitions:
        if (src, label) in step:
            problems.append(f"nondeterministic at state {tp.states[src]} on {label}")
        step[(src, label)] = dst
    emitted = set(tp.outputs)
    adj: list[list[int]] = [[] for _ in tp.states]
    indegree = [0] * len(tp.states)
    stimuli = [0] * len(tp.states)
    for (src, label), dst in step.items():
        stimuli[src] += label in emitted
        if not (src == dst and src in (tp.pass_index, tp.fail_index)):
            adj[src].append(dst)
            indegree[dst] += 1
    for s in range(len(tp.states)):
        missing = [tok for tok in tp.inputs if (s, tok) not in step]
        if missing:
            problems.append(f"state {tp.states[s]} not input-enabled: misses {missing}")
        if s not in (tp.pass_index, tp.fail_index) and stimuli[s] != 1:
            problems.append(f"state {tp.states[s]} offers {stimuli[s]} stimuli")
    # Kahn: the states on or behind a cycle never reach indegree 0
    order = [s for s, d in enumerate(indegree) if d == 0]
    for s in order:
        for t in adj[s]:
            indegree[t] -= 1
            if indegree[t] == 0:
                order.append(t)
    if len(order) < len(tp.states):
        problems.append("cycle outside pass/fail self-loops")

    def reachable(start: int) -> list[int]:
        return _explore(start, lambda s: [(t, t) for t in adj[s]])[0]

    if tp.pass_index in reachable(tp.fail_index):
        problems.append("pass reachable from fail")
    if tp.fail_index in reachable(tp.pass_index):
        problems.append("fail reachable from pass")
    return problems


def _require_sound(tp: TestPurpose) -> None:
    """FormatError naming every invariant ``tp`` breaks, if any."""
    problems = tp_invariant_violations(tp)
    if problems:
        raise FormatError("invalid test purpose: " + "; ".join(problems))


@dataclass(frozen=True)
class FaultModel:
    """An ordered set of test purposes extracted from one multigraph;
    ``tps[i]`` is the tester of ``paths[i]``, the path ``run_fault_model`` runs."""

    tps: tuple[TestPurpose, ...]
    paths: tuple[tuple[str, ...], ...]
    m: int
    n: int
    limit: int
    truncated: bool
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]  # model outputs including delta

    @property
    def levels(self) -> int:
        return self.m * self.n + 1

    @property
    def exhaustive(self) -> bool:
        return not self.truncated


def generate_fault_model(spec: Iolts, m: int, limit: int = 1000) -> FaultModel:
    """Multigraph construction, path extraction and tester completion in one go.

    The specification is quiescence-completed if necessary (it must be
    deterministic).  When ``limit`` exceeds the number of fault paths the
    model is exhaustive; otherwise it is sound but truncated, and flagged so.
    """
    cs = ensure_quiescence(spec)
    g = build_multigraph(cs, m)
    _require(_is(limit, _INT, 1), "path limit must be >= 1")
    # one path past the limit tells whether the model is truncated
    paths = enumerate_fault_paths(g, limit + 1)
    truncated = len(paths) > limit
    del paths[limit:]
    testers = _Testers(cs.inputs, (t for t in cs.outputs if t != DELTA))
    tps = tuple(map(testers.tester, paths))
    return FaultModel(tps, tuple(paths), m, g.n, limit, truncated,
                      cs.inputs, cs.outputs)


# --- fault-model directory format -------------------------------------------


def tp_to_text(tp: TestPurpose, comments: tuple[str, ...] = ()) -> str:
    return _serialize(tp.states, tp.initial, tp.inputs, tp.outputs,
                      tp.transitions, comments)


def tp_from_text(text: str) -> TestPurpose:
    states, initial, inputs, outputs, transitions = _read_sections(text)
    try:
        pass_idx = states.index(PASS)
        fail_idx = states.index(FAIL)
    except ValueError:
        raise FormatError("test purpose file lacks pass/fail states") from None
    tp = TestPurpose(states, initial, inputs, outputs, transitions,
                     pass_idx, fail_idx)
    _require_sound(tp)
    return tp


# every manifest key, in the order written, with its JSON type
_MANIFEST_TYPES = {"m": int, "n": int, "levels": int, "limit": int, "truncated": bool,
                   "tp_count": int, "inputs": list, "outputs": list, "paths": list}


def _tp_file(i: int) -> str:
    """The file name of a suite's i-th tester."""
    return f"tp-{i:04d}.iolts"


def _json(convert, *args, **kwargs):
    """``convert(*args, **kwargs)``, a suite document's JSON dump or load, with read's errors."""
    try:
        return convert(*args, **kwargs)
    except RecursionError:
        raise FormatError("manifest.json is nested too deeply") from None
    except ValueError:  # bad JSON or UTF-8, or an integer too long to spell or convert
        raise FormatError("manifest.json is not readable JSON") from None


def _open_suite(manifest, build) -> tuple:
    """The one entry step of ``manifest``, the suite document write writes and read
    reads: FormatError unless, in this order, it is an object of ``_MANIFEST_TYPES``
    keys and types with token-list alphabets and paths, each path passes ``build``
    (a ``_Testers`` method) and path 0 the alphabets, and the six value rules hold.
    Returns the builder, the paths as tuples, and what ``build`` made of each."""
    if not isinstance(manifest, dict):
        raise FormatError("manifest.json must hold a JSON object")
    for key, kind in _MANIFEST_TYPES.items():
        if type(manifest.get(key)) is not kind:  # also rejects bool for int
            raise FormatError(f"manifest.json needs key {key!r} of type {kind.__name__}")
    m, n, levels, limit, truncated, tp_count, inputs, outputs, paths = map(
        manifest.get, _MANIFEST_TYPES)
    if not all(type(v) is list and all(type(t) is str for t in v)
               for v in (inputs, outputs, *paths)):
        raise FormatError("manifest.json alphabets and paths must be lists of tokens")
    testers = _Testers(inputs, (t for t in outputs if t != DELTA))
    paths, built = tuple(map(tuple, paths)), []
    for i, path in enumerate(paths):
        try:
            built.append(build(testers, path))
            if i == 0:  # the alphabets, as the first tester built checks them
                _tester_names(testers.observed, testers.emitted)
        except FormatError as exc:
            raise FormatError(f"manifest.json path {i}: {exc}") from None
    if DELTA not in outputs:
        raise FormatError("manifest.json outputs lack 'delta'")
    if tp_count != len(paths):
        raise FormatError("manifest.json tp_count differs from its number of paths")
    if min(m, n, limit) < 1:
        raise FormatError("manifest.json needs m, n and limit of at least 1")
    if len(paths) > limit:
        raise FormatError("manifest.json holds more paths than its limit")
    if truncated and len(paths) < limit:
        raise FormatError("manifest.json is truncated with fewer paths than its limit")
    if levels != m * n + 1:
        raise FormatError("manifest.json needs levels of m*n + 1")
    return testers, paths, built


def write_fault_model(model: FaultModel, directory: str) -> None:
    """Write tp-NNNN.iolts files plus a manifest.json describing the run, and
    remove the tp-NNNN.iolts files numbered past the new suite; a model that
    ``read_fault_model`` refuses raises its FormatError before any writing, as
    both run the manifest text through ``_open_suite`` (paths by ``_Testers.edges``)."""
    text = _json(json.dumps, dict(zip(_MANIFEST_TYPES, (  # JSON spells the tuples as lists
        model.m, model.n, model.levels, model.limit, model.truncated, len(model.paths),
        model.inputs, model.outputs, model.paths))), indent=2) + "\n"
    testers, paths, _ = _open_suite(json.loads(text), _Testers.edges)
    os.makedirs(directory, exist_ok=True)
    for i, path in enumerate(paths):
        with open(os.path.join(directory, _tp_file(i)), "w", encoding="utf-8") as fh:
            fh.write(testers.text(path))
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    for name in os.listdir(directory):  # testers of an earlier, longer suite
        i = name[3:-6]
        if i.isdecimal() and name == _tp_file(int(i)) and int(i) >= len(paths):
            os.remove(os.path.join(directory, name))


def read_fault_model(directory: str) -> FaultModel:
    """Load a directory written by ``write_fault_model``, rebuilding each tester
    from its manifest path; FormatError on a manifest ``_open_suite`` refuses, with
    write's message, or then on a tester file that differs from what write writes."""
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = _json(json.load, fh)
    testers, paths, tps = _open_suite(manifest, _Testers.tester)
    for i, path in enumerate(paths):
        name = _tp_file(i)
        with open(os.path.join(directory, name), "rb") as fh:
            if fh.read() != testers.text(path).encode("utf-8"):
                raise FormatError(f"{name} differs from the tester of its manifest path")
    return FaultModel(tuple(tps), paths, *map(manifest.get, ("m", "n", "limit", "truncated")),
                      testers.emitted, tuple(manifest["outputs"]))
