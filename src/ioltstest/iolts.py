"""IOLTS models: file format, quiescence completion, determinization, traces.

An IOLTS is a labeled transition system whose visible labels are split into
disjoint input and output alphabets, with ``tau`` marking internal moves.
Quiescence (no outputs and no internal moves at a state) is made observable by
adding a ``delta`` self-loop there, after which the observable behavior of a
model is the prefix-closed set of its tau-free label sequences.
``determinize`` builds that set as an automaton by the subset construction
of ``fsa`` over the model's adjacency rows, from a subset table the model
caches, which the verdicts and runs step on demand instead (``_Stepped``);
``traces_bounded`` enumerates it with its own tau-closure, so each
cross-checks the other.

The line format of models and testers has its one reader, ``_read_sections``,
its one writer, ``_serialize``, and its one name rule, ``_check_name``, here.
The reader resolves each transition line to its state indices in the pass
that splits it.  A model is checked when it is parsed or constructed, names
by that rule and indices by ``_Record``'s, so a float or bool index is refused;
the models the package derives from it are not checked again (``Iolts._built``).

State order is declaration order and is semantically load-bearing: it defines
the state indices used by the multigraph construction and every tie-breaking
rule downstream, so all transformations preserve it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import FormatError
from .fsa import _INT, Dfsa, _is, _Record, _require, _subset_table, _SubsetTable

TAU = "tau"
DELTA = "delta"
PASS = "pass"  # the terminal states of a tester
FAIL = "fail"

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_RESERVED_NAMES = frozenset({TAU, DELTA, PASS, FAIL})
_SECTIONS = ("states", "initial", "inputs", "outputs")


def _check_name(name, kind: str) -> None:
    """The line format's one name rule: a str matching ``_NAME_RE``, else FormatError."""
    if type(name) is not str or not _NAME_RE.match(name):
        raise FormatError(f"invalid {kind} name {name!r}")


@dataclass(frozen=True)
class Iolts(_Record):
    """An input/output labeled transition system.

    ``outputs`` contains ``delta`` once the model has been quiescence-completed, and no
    delta move without it; plain user models never mention ``delta``, and ``tau`` appears
    only as a transition label.  Instances are immutable and safe to share; each caches its
    adjacency rows, its subset table, ``ensure_quiescence`` and ``determinize`` on first
    use, and the caches take no part in equality or hashing.  The constructor checks names,
    ranges and labels; derived models are not checked again.
    """

    states: tuple[str, ...]
    initial: int
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    transitions: tuple[tuple[int, str, int], ...]

    def __post_init__(self):
        def check_name(name, kind):
            _check_name(name, kind)
            if name in _RESERVED_NAMES:
                article = "an" if kind[0] in "aeiou" else "a"
                raise FormatError(f"reserved name {name!r} may not be used as {article} {kind}")

        self._check_containers()
        if not self.states:
            raise FormatError("model has no states")
        names: set[str] = set()
        for name in self.states:
            check_name(name, "state")
            if name in names:
                raise FormatError(f"duplicate state name {name!r}")
            names.add(name)
        seen: set[str] = set()
        for name in self.inputs:
            check_name(name, "input action")
            if name in seen:
                raise FormatError(f"duplicate action name {name!r}")
            seen.add(name)
        for name in self.outputs:
            if name != DELTA:
                check_name(name, "output action")
            if name in seen:
                raise FormatError(
                    f"alphabets not disjoint: {name!r}" if name in self.inputs
                    else f"duplicate action name {name!r}"
                )
            seen.add(name)
        self._check_moves(len(self.states), self.transitions, seen | {TAU}, "unknown label {!r}")
        if len(set(self.transitions)) != len(self.transitions):
            raise FormatError("duplicate transition")

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[str, int], ...], ...]:
        out: list[list[tuple[str, int]]] = [[] for _ in self.states]
        for src, label, dst in self.transitions:
            out[src].append((label, dst))
        return tuple(tuple(row) for row in out)

    @cached_property
    def _quiescence_completion(self) -> Iolts:
        if self.has_delta:
            raise FormatError("model mentions delta but is not quiescence-completed")
        return complete_quiescence(self)

    @cached_property
    def _subsets(self) -> _SubsetTable:
        return _subset_table(self._adjacency, TAU, self.observable_alphabet)

    @cached_property
    def _determinization(self) -> Dfsa:
        return self._subsets.dfsa(self.initial, lambda mask: True)

    def transitions_from(self, state: int) -> tuple[tuple[str, int], ...]:
        return self._adjacency[state]

    @property
    def observable_alphabet(self) -> tuple[str, ...]:
        """Inputs then outputs, in declaration order (delta last if completed)."""
        return self.inputs + self.outputs

    @cached_property
    def is_deterministic(self) -> bool:
        """No tau transitions and at most one target per (state, label)."""
        seen = set()
        for src, label, dst in self.transitions:
            if label == TAU or (src, label) in seen:
                return False
            seen.add((src, label))
        return True

    @property
    def has_delta(self) -> bool:
        return DELTA in self.outputs

    @cached_property
    def _quiescent(self) -> tuple[int, ...]:
        """The states with no tau move and no output but delta, in order."""
        noisy_labels = {TAU, *self.outputs} - {DELTA}
        noisy = {src for src, label, _ in self.transitions if label in noisy_labels}
        return tuple(i for i in range(len(self.states)) if i not in noisy)

    @cached_property
    def is_quiescence_completed(self) -> bool:
        """Delta self-loops sit at exactly the quiescent states, nowhere else."""
        # the constructor rejects duplicate transitions, so the sets compare exactly
        return DELTA in self.outputs and (
            {(s, d) for s, label, d in self.transitions if label == DELTA}
            == {(i, i) for i in self._quiescent})


# --- file format ---------------------------------------------------------


def _read_sections(text: str) -> tuple:
    """Read the line format into states, initial index, inputs, outputs and
    transition triples, a repeated transition line once; shared by the model
    and test-purpose loaders, whose constructors check the rest."""
    _require(type(text) is str, "model or tester text must be a str", FormatError)
    lines = [ln for raw in text.splitlines() if (ln := raw.split("#", 1)[0].strip())]
    header = []
    for pos, name in enumerate(_SECTIONS):
        if pos >= len(lines) or not lines[pos].startswith(name + ":"):
            raise FormatError(f"missing section {name!r}")
        header.append(lines[pos][len(name) + 1 :].split())
    k = len(_SECTIONS)
    if len(lines) <= k or lines[k] != "transitions:":
        raise FormatError("missing section 'transitions'")
    states, initial, inputs, outputs = header
    state_index = {name: i for i, name in enumerate(states)}
    transitions: dict[tuple[int, str, int], None] = {}  # an ordered set
    for line in lines[k + 1 :]:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"malformed transition line {line!r}")
        src, label, dst = parts
        try:
            transitions[(state_index[src], label, state_index[dst])] = None
        except KeyError as exc:
            raise FormatError(f"unknown state {exc.args[0]!r} in transition") from None
    if len(initial) != 1:
        raise FormatError("initial section must name exactly one state")
    if initial[0] not in state_index:
        raise FormatError(f"initial state {initial[0]!r} not declared")
    return (tuple(states), state_index[initial[0]], tuple(inputs), tuple(outputs),
            tuple(transitions))


def parse_model(text: str) -> Iolts:
    """Parse the line-oriented model format.

    Sections appear exactly once, in order: ``states:``, ``initial:``,
    ``inputs:``, ``outputs:``, ``transitions:`` followed by one
    ``<src> <label> <dst>`` per line.  ``#`` starts a comment.  ``delta`` is
    accepted only in the outputs section (as written by quiescence completion);
    user models should not mention it.
    """
    return Iolts(*_read_sections(text))


def serialize_model(m: Iolts, comments: tuple[str, ...] = ()) -> str:
    """Canonical text for a model: fixed section order, stored transition order."""
    return _serialize(m.states, m.initial, m.inputs, m.outputs, m.transitions,
                      comments)


def _serialize(states, initial, inputs, outputs, transitions, comments) -> str:
    lines = [f"# {c}" for c in comments]
    for name, tokens in zip(_SECTIONS, (states, (states[initial],), inputs, outputs)):
        lines.append(" ".join((f"{name}:", *tokens)))
    lines.append("transitions:\n")
    return "\n".join(lines) + _transition_lines(states, transitions)


def _transition_lines(states, transitions) -> str:
    """One ``<src> <label> <dst>`` line per transition, each ending in a newline."""
    return "".join([f"{states[src]} {label} {states[dst]}\n"
                    for src, label, dst in transitions])


# --- quiescence ------------------------------------------------------------


def complete_quiescence(m: Iolts) -> Iolts:
    """Add a delta self-loop at every quiescent state and delta to the outputs.

    Raises FormatError if the model already mentions delta anywhere.
    """
    _require(not m.has_delta, "model already contains delta", FormatError)
    return Iolts._built(m.states, m.initial, m.inputs, m.outputs + (DELTA,),
                        m.transitions + tuple((i, DELTA, i) for i in m._quiescent))


def ensure_quiescence(m: Iolts) -> Iolts:
    """Return ``m`` if already quiescence-completed, else complete it.

    A model that mentions delta without being structurally completed is
    rejected: user-supplied delta is forbidden.
    """
    return m if m.is_quiescence_completed else m._quiescence_completion


# --- observable semantics ---------------------------------------------------


def _tau_closure(m: Iolts, states: frozenset[int]) -> frozenset[int]:
    stack = list(states)
    seen = set(states)
    while stack:
        s = stack.pop()
        for label, t in m.transitions_from(s):
            if label == TAU and t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def determinize(m: Iolts) -> Dfsa:
    """Subset construction over observable tokens; all subset states accept.

    The result recognizes exactly the observable traces of ``m`` (a prefix
    closed language, hence the all-accepting state set).  Missing transitions
    stay missing: the empty subset is never materialized.  Requires a
    quiescence-completed model so that delta is part of the token alphabet.
    The automaton is built once per model and shared, so treat it as read-only.
    """
    if not m.is_quiescence_completed:
        raise FormatError("determinize requires a quiescence-completed model")
    return m._determinization


class _Stepped(dict):
    """det(m) stepped on demand for one walk: maps each subset mask it was
    asked for to its ``{token: mask}`` row; ``start`` is the initial mask."""

    def __init__(self, m: Iolts):
        self.step, self.start = m._subsets.step, m._subsets.reach[m.initial]

    def __missing__(self, mask: int) -> dict[str, int]:
        row = self[mask] = self.step(mask)
        return row


def traces_bounded(m: Iolts, depth: int) -> set[tuple[str, ...]]:
    """All observable traces of length <= depth, by exhaustive search.

    This is the brute-force oracle: it replays words against the raw
    transition relation with tau-closure at every step and never builds an
    automaton, so it cross-checks determinize() through an independent path.
    """
    _require(_is(depth, _INT, 0), "depth must be >= 0")
    if not m.is_quiescence_completed:
        raise FormatError("traces_bounded requires a quiescence-completed model")
    alphabet = m.observable_alphabet
    words: set[tuple[str, ...]] = {()}
    frontier: list[tuple[tuple[str, ...], frozenset[int]]] = [
        ((), _tau_closure(m, frozenset({m.initial})))
    ]
    for _ in range(depth):
        nxt = []
        for word, reach in frontier:
            for tok in alphabet:
                targets = {t for s in reach for label, t in m.transitions_from(s)
                           if label == tok}
                if not targets:
                    continue
                w = word + (tok,)
                words.add(w)
                nxt.append((w, _tau_closure(m, frozenset(targets))))
        frontier = nxt
    return words
