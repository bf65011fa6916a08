"""Random model generation, submachine extraction, mutation, input-enabling.

Everything here is a deterministic function of a 64-bit seed driving a
SplitMix64 stream, so the same parameters reproduce the same model bit for
bit (including across ports of this toolkit to other languages).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import FormatError
from .fsa import _FLAG, _INT, _NUMBER, _explore, _is, _require
from .iolts import TAU, Iolts

log = logging.getLogger(__name__)

_MASK = (1 << 64) - 1


class SplitMix64:
    """The fixed PRNG stream behind all generation and mutation."""

    def __init__(self, seed: int):
        _require(_is(seed, _INT), "seed must be an int")  # any int, masked to 64 bits
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def chance(self, p: float) -> bool:
        return self.next_u64() < int(p * 2.0**64)

    def choice(self, seq):
        return seq[self.below(len(seq))]


def _tokens(spec: int | Sequence[str], prefix: str) -> tuple[str, ...]:
    if isinstance(spec, (list, tuple)):
        return tuple(spec)
    _require(_is(spec, _INT, 0), "token count must be >= 0")  # a bool or a str is no count
    return tuple(f"{prefix}{k}" for k in range(spec))


@dataclass(frozen=True)
class GenParams:
    """Shape of a randomly generated model.

    ``inputs``/``outputs`` take either a count (names are synthesized) or an
    explicit token list or tuple.  ``density`` is the probability that an
    optional (state, label) slot carries a transition.
    """

    states: int
    inputs: int | Sequence[str]
    outputs: int | Sequence[str]
    deterministic: bool = True
    input_enabled: bool = True
    density: float = 0.5
    seed: int = 0

    def validate(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        _require(_is(self.states, _INT, 1), "state count must be >= 1")
        _require(_is(self.density, _NUMBER) and 0.0 <= self.density <= 1.0,
                 "density must lie in [0, 1]")
        _require(_is(self.deterministic, _FLAG), "deterministic must be a bool")
        _require(_is(self.input_enabled, _FLAG), "input_enabled must be a bool")
        inputs = _tokens(self.inputs, "in")
        outputs = _tokens(self.outputs, "out")
        if self.input_enabled and not inputs:
            raise ValueError("input-enabled model needs a nonempty input alphabet")
        if self.input_enabled and self.density == 0.0:
            raise ValueError("infeasible parameters: density 0 with input-enabled flag")
        if self.states > 1 and not (inputs or outputs):
            raise ValueError("cannot connect several states without any label")
        return inputs, outputs


def random_iolts(p: GenParams) -> Iolts:
    """Seed-deterministic random model, connected from the initial state.

    A spanning connection is drawn first (each new state is attached to an
    already reachable one through a free slot), every input slot is then
    filled when input-enabledness is requested, and remaining slots carry a
    transition with probability ``density``.  Nondeterministic generation adds
    tau moves and duplicate-label transitions on top.
    """
    inputs, outputs = p.validate()
    rng = SplitMix64(p.seed)
    n = p.states
    labels = inputs + outputs
    targets: dict[tuple[int, str], set[int]] = {}
    transitions: list[tuple[int, str, int]] = []

    def add(src: int, label: str, dst: int) -> None:
        row = targets.setdefault((src, label), set())
        if dst not in row:
            row.add(dst)
            transitions.append((src, label, dst))

    free = [(0, lab) for lab in labels]  # the unused slots of states 0..k-1, in order
    for k in range(1, n):  # validate() leaves a label, so step k has k*L - (k-1) >= 1 slots
        src, lab = free.pop(rng.below(len(free)))
        add(src, lab, k)
        free += [(k, lab) for lab in labels]
    for s in range(n):
        for tok in inputs:
            if (s, tok) in targets:
                continue
            if p.input_enabled or rng.chance(p.density):
                add(s, tok, rng.below(n))
    for s in range(n):
        for tok in outputs:
            if (s, tok) not in targets and rng.chance(p.density):
                add(s, tok, rng.below(n))
    if not p.deterministic:
        for s in range(n):
            if rng.chance(p.density):
                add(s, TAU, rng.below(n))
            if labels and rng.chance(p.density):
                add(s, rng.choice(labels), rng.below(n))
    states = tuple(f"s{i}" for i in range(n))
    model = Iolts(states, 0, inputs, outputs, tuple(transitions))
    if p.deterministic and not model.is_deterministic:
        raise AssertionError("generator broke the determinism flag")
    return model


def submachine(spec: Iolts, keep_fraction: float, seed: int,
               max_attempts: int = 32) -> Iolts:
    """A conforming implementation obtained by deleting output behavior.

    Each output transition survives with probability ``keep_fraction``;
    unreachable states are pruned afterwards.  Deleting outputs can create
    fresh quiescence that breaks conformance, so candidates are checked and
    rejection-sampled; after ``max_attempts`` the specification itself is
    returned (it trivially conforms).
    """
    from .conformance import check_ioco

    _require(not spec.has_delta, "submachine extraction expects a delta-free model", FormatError)
    _require(_is(keep_fraction, _NUMBER) and 0.0 < keep_fraction <= 1.0,
             "keep_fraction must lie in (0, 1]")
    _require(_is(max_attempts, _INT, 0), "max_attempts must be >= 0")
    rng = SplitMix64(seed)
    if keep_fraction == 1.0:
        return spec
    output_set = set(spec.outputs)
    for attempt in range(max_attempts):
        kept = tuple(
            t for t in spec.transitions
            if t[1] not in output_set or rng.chance(keep_fraction)
        )
        candidate = _prune_unreachable(
            Iolts._built(spec.states, spec.initial, spec.inputs, spec.outputs, kept))
        if check_ioco(spec, candidate).conforms:
            if attempt:
                log.debug("submachine accepted after %d retries", attempt)
            return candidate
    log.debug("submachine sampling exhausted %d attempts; returning the spec", max_attempts)
    return spec


def _prune_unreachable(m: Iolts) -> Iolts:
    keep = sorted(_explore(m.initial, m.transitions_from)[0])
    if len(keep) == len(m.states):
        return m
    remap = {old: new for new, old in enumerate(keep)}
    return Iolts._built(tuple(m.states[i] for i in keep), remap[m.initial], m.inputs, m.outputs,
                        tuple((remap[s], lab, remap[t]) for s, lab, t in m.transitions
                              if s in remap and t in remap))


@dataclass(frozen=True)
class MutationEdit:
    kind: str  # "retarget" | "relabel" | "grow"
    before: tuple[int, str, int] | None
    after: tuple[int, str, int]


@dataclass(frozen=True)
class MutationRecord:
    model: Iolts
    edits: tuple[MutationEdit, ...]


def mutate(m: Iolts, rate: float, seed: int, grow: int = 0) -> MutationRecord:
    """Edit ceil(rate * |transitions|) transitions, uniformly among legal edits.

    An edit either retargets a transition or relabels it within its alphabet
    class (inputs stay inputs, outputs stay outputs; tau only retargets), and
    never breaks determinism of a deterministic model.  The modification
    percentage counts transitions, not states.  ``grow`` appends that many
    fresh states, each attached with an incoming and an outgoing transition.
    The returned record carries the model plus the exact edit list.
    """
    # delta structure is derived, not behavior; mutate the raw model
    _require(not m.has_delta, "mutation expects a delta-free model", FormatError)
    _require(len(m.transitions) > 0, "cannot mutate a model without transitions")
    _require(_is(rate, _NUMBER) and 0.0 < rate <= 1.0, "rate must lie in (0, 1]")
    _require(_is(grow, _INT, 0), "grow must be >= 0")
    rng = SplitMix64(seed)
    wanted = math.ceil(rate * len(m.transitions))
    transitions = list(m.transitions)
    keep_deterministic = m.is_deterministic
    n = len(m.states)
    input_set = set(m.inputs)

    # Fisher-Yates order over transition indices, then take edits in turn.
    order = list(range(len(transitions)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]

    targets: dict[tuple[int, str], set[int]] = {}
    for s, lab, t in transitions:
        targets.setdefault((s, lab), set()).add(t)

    def draw(idx: int) -> tuple[str, tuple[int, str, int]] | None:
        """One edit drawn uniformly from the legal ones, listed as retargets
        by ascending target, then relabels in family order; None if none."""
        src, lab, dst = transitions[idx]
        taken = targets[(src, lab)]
        free = n - len(taken)
        family = () if lab == TAU else m.inputs if lab in input_set else m.outputs
        relabels = [o for o in family if o != lab and not (
            (row := targets.get((src, o))) and (keep_deterministic or dst in row))]
        options = free + len(relabels)
        if not options:
            return None
        k = rng.below(options)
        if k >= free:
            return "relabel", (src, relabels[k - free], dst)
        for t in sorted(taken):  # the k-th state outside ``taken``
            k += t <= k
        return "retarget", (src, lab, k)

    edits: list[MutationEdit] = []
    for idx in order:
        if len(edits) == wanted:
            break
        edit = draw(idx)
        if edit is None:
            continue
        kind, after = edit
        before = transitions[idx]
        transitions[idx] = after
        targets[before[:2]].discard(before[2])
        targets.setdefault(after[:2], set()).add(after[2])
        edits.append(MutationEdit(kind, before, after))
    if len(edits) < wanted:
        raise ValueError("not enough legal edits to reach the requested rate")

    states = list(m.states)
    labels = m.inputs + m.outputs
    if grow:  # the slots a grown state may attach to, in (state, label) order
        free = [(s, lab) for s in range(n) for lab in labels
                if not keep_deterministic or not targets.get((s, lab))]
    for g in range(grow):
        new_idx = len(states)
        name = f"g{g}"
        while name in states:
            name = name + "_"
        states.append(name)
        if not free:
            raise ValueError("no free slot to attach a grown state")
        k = rng.below(len(free))
        src, lab = free.pop(k) if keep_deterministic else free[k]
        incoming = (src, lab, new_idx)
        transitions.append(incoming)
        edits.append(MutationEdit("grow", None, incoming))
        out_lab = labels[rng.below(len(labels))]
        outgoing = (new_idx, out_lab, rng.below(new_idx + 1))
        transitions.append(outgoing)
        edits.append(MutationEdit("grow", None, outgoing))
        free += [(new_idx, lab) for lab in labels
                 if not keep_deterministic or lab != out_lab]

    mutated = Iolts(tuple(states), m.initial, m.inputs, m.outputs, tuple(transitions))
    if keep_deterministic and not mutated.is_deterministic:
        raise AssertionError("mutation broke determinism")
    return MutationRecord(mutated, tuple(edits))


def angelic_input_enable(m: Iolts) -> Iolts:
    """Self-loop every missing input at every state (the forced-enabling trick
    some tools apply to underspecified implementations).  Idempotent."""
    defined = {(s, l) for s, l, _ in m.transitions}
    added = tuple(
        (s, tok, s)
        for s in range(len(m.states))
        for tok in m.inputs
        if (s, tok) not in defined
    )
    if not added:
        return m
    return Iolts._built(m.states, m.initial, m.inputs, m.outputs, m.transitions + added)
