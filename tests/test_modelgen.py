"""Seeded generation, submachines, mutation, angelic input-enabling."""

import hashlib
import math
from dataclasses import replace

import pytest

from ioltstest import (
    TAU,
    FormatError,
    GenParams,
    Iolts,
    MutationEdit,
    MutationRecord,
    SplitMix64,
    angelic_input_enable,
    check_ioco,
    complete_quiescence,
    ensure_quiescence,
    generate_fault_model,
    mutate,
    parse_model,
    random_iolts,
    read_fault_model,
    serialize_model,
    submachine,
    traces_bounded,
    write_fault_model,
)
from ioltstest.modelgen import _prune_unreachable


def test_splitmix_stream_is_stable():
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = SplitMix64(1234567)
    assert first == [rng2.next_u64() for _ in range(3)]
    assert all(0 <= v < 2**64 for v in first)


def test_single_state_input_enabled():
    m = random_iolts(GenParams(states=1, inputs=["a"], outputs=["x"], seed=7))
    assert (0, "a", 0) in m.transitions


def test_seeded_determinism():
    p = GenParams(states=10, inputs=2, outputs=10, seed=1)
    assert serialize_model(random_iolts(p)) == serialize_model(random_iolts(p))


def test_paper_alphabet_shape_parses():
    m = random_iolts(GenParams(states=10, inputs=2, outputs=10, seed=42))
    assert len(m.inputs) == 2 and len(m.outputs) == 10
    assert len(m.states) == 10


def test_flags_honored():
    m = random_iolts(GenParams(states=6, inputs=["a", "b"], outputs=["x"],
                               deterministic=True, input_enabled=True,
                               density=0.5, seed=3))
    assert m.is_deterministic
    defined = {(s, l) for s, l, _ in m.transitions}
    for s in range(6):
        for tok in ("a", "b"):
            assert (s, tok) in defined


def test_connectivity():
    for seed in range(10):
        m = random_iolts(GenParams(states=7, inputs=["a"], outputs=["x", "y"],
                                   input_enabled=False, density=0.3, seed=seed))
        reach = {m.initial}
        stack = [m.initial]
        while stack:
            s = stack.pop()
            for _, t in m.transitions_from(s):
                if t not in reach:
                    reach.add(t)
                    stack.append(t)
        assert len(reach) == len(m.states)


def test_infeasible_params_rejected():
    with pytest.raises(ValueError):
        random_iolts(GenParams(states=2, inputs=["a"], outputs=["x"],
                               input_enabled=True, density=0.0, seed=0))
    with pytest.raises(ValueError):
        random_iolts(GenParams(states=0, inputs=1, outputs=1, seed=0))


def test_submachine_identity(m1):
    assert submachine(m1, 1.0, seed=5) == m1


def test_submachines_conform():
    for seed in range(200):
        spec = random_iolts(GenParams(states=2 + seed % 5, inputs=["a", "b"],
                                      outputs=["x", "y"], deterministic=True,
                                      input_enabled=False, density=0.5,
                                      seed=seed))
        sub = submachine(spec, 0.6, seed)
        assert check_ioco(spec, sub).conforms


def test_submachine_m1_falls_back(m1):
    # dropping x from M1 always breaks conformance, so sampling regenerates
    # and ultimately returns a conforming model
    result = submachine(m1, 0.01, seed=9, max_attempts=5)
    assert check_ioco(m1, result).conforms


def test_mutate_edit_count(m1):
    record = mutate(m1, 0.5, seed=11)
    assert len(record.edits) == math.ceil(0.5 * len(m1.transitions)) == 1


def test_mutate_edit_list_replays_to_result():
    m = random_iolts(GenParams(states=5, inputs=["a", "b"], outputs=["x", "y"],
                               seed=21))
    record = mutate(m, 0.25, seed=4)
    assert len(record.edits) == math.ceil(0.25 * len(m.transitions))
    replayed = list(m.transitions)
    for e in record.edits:
        if e.kind == "grow":
            replayed.append(e.after)
        else:
            replayed[replayed.index(e.before)] = e.after
    assert tuple(replayed) == record.model.transitions


def test_mutate_deterministic_in_seed(m1):
    a = mutate(m1, 0.5, seed=3)
    b = mutate(m1, 0.5, seed=3)
    assert a.model == b.model and a.edits == b.edits


def test_mutate_preserves_determinism_flag():
    m = random_iolts(GenParams(states=6, inputs=["a", "b"], outputs=["x"],
                               seed=8))
    assert mutate(m, 0.3, seed=1).model.is_deterministic


def test_mutate_rejects_bad_args(m1, m4):
    with pytest.raises(ValueError):
        mutate(m1, 0.0, seed=0)
    with pytest.raises(ValueError):
        mutate(m4, 0.5, seed=0)  # no transitions


def test_mutate_grow_adds_states(m1):
    record = mutate(m1, 0.5, seed=2, grow=2)
    assert len(record.model.states) == len(m1.states) + 2
    assert sum(1 for e in record.edits if e.kind == "grow") == 4


def test_angelic_idempotent():
    m = random_iolts(GenParams(states=4, inputs=["a", "b"], outputs=["x"],
                               input_enabled=True, seed=13))
    assert angelic_input_enable(m) is m


def test_angelic_on_empty_model(m4):
    enabled = angelic_input_enable(m4)
    assert (0, "a", 0) in enabled.transitions


def test_angelic_never_removes_behavior():
    for seed in range(8):
        m = random_iolts(GenParams(states=4, inputs=["a", "b"], outputs=["x"],
                                   input_enabled=False, density=0.4, seed=seed))
        before = traces_bounded(ensure_quiescence(m), 4)
        after = traces_bounded(ensure_quiescence(angelic_input_enable(m)), 4)
        assert before <= after


def test_angelic_can_break_conformance():
    """Forcing input-enabledness invents behavior a richer spec rejects."""
    spec = parse_model(
        "states: s0 s1 s2 s3\ninitial: s0\ninputs: a b\noutputs: x y\n"
        "transitions:\ns0 a s1\ns1 x s0\ns0 b s2\ns2 y s3\n"
    )
    iut = parse_model(
        "states: q0 q1 q2\ninitial: q0\ninputs: a b\noutputs: x y\n"
        "transitions:\nq0 a q1\nq1 x q2\n"
    )
    assert check_ioco(spec, iut).conforms
    forced = angelic_input_enable(iut)
    assert not check_ioco(spec, forced).conforms


def _listing_mutate(m, rate, seed, grow=0):
    """``mutate`` by listing: every legal edit of a transition is listed, then
    one is picked.  ``test_mutate_matches_listing`` compares the draw with it."""
    if m.has_delta:
        raise FormatError("mutation expects a delta-free model")
    if not m.transitions:
        raise ValueError("cannot mutate a model without transitions")
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    if grow < 0:
        raise ValueError("grow must be >= 0")
    rng = SplitMix64(seed)
    wanted = math.ceil(rate * len(m.transitions))
    transitions = list(m.transitions)
    keep_deterministic = m.is_deterministic
    n = len(m.states)
    order = list(range(len(transitions)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    existing = set(transitions)
    defined = {(s, l) for s, l, _ in transitions}

    def legal_edits(idx):
        src, lab, dst = transitions[idx]
        options = [("retarget", (src, lab, t)) for t in range(n)
                   if t != dst and (src, lab, t) not in existing]
        if lab != TAU:
            family = m.inputs if lab in m.inputs else m.outputs
            for other in family:
                if other == lab or keep_deterministic and (src, other) in defined:
                    continue
                if (src, other, dst) not in existing:
                    options.append(("relabel", (src, other, dst)))
        return options

    edits = []
    for idx in order:
        if len(edits) == wanted:
            break
        options = legal_edits(idx)
        if not options:
            continue
        kind, after = options[rng.below(len(options))]
        before = transitions[idx]
        transitions[idx] = after
        existing.remove(before)
        existing.add(after)
        defined.discard(before[:2])
        defined.add(after[:2])
        edits.append(MutationEdit(kind, before, after))
    if len(edits) < wanted:
        raise ValueError("not enough legal edits to reach the requested rate")
    states = list(m.states)
    labels = m.inputs + m.outputs
    for g in range(grow):
        new_idx = len(states)
        name = f"g{g}"
        while name in states:
            name = name + "_"
        states.append(name)
        free = [(s, lab) for s in range(new_idx) for lab in labels
                if not keep_deterministic or (s, lab) not in defined]
        if not free:
            raise ValueError("no free slot to attach a grown state")
        src, lab = free[rng.below(len(free))]
        incoming = (src, lab, new_idx)
        transitions.append(incoming)
        edits.append(MutationEdit("grow", None, incoming))
        out_lab = labels[rng.below(len(labels))]
        outgoing = (new_idx, out_lab, rng.below(new_idx + 1))
        transitions.append(outgoing)
        defined.update(((src, lab), (new_idx, out_lab)))
        edits.append(MutationEdit("grow", None, outgoing))
    mutated = Iolts(tuple(states), m.initial, m.inputs, m.outputs, tuple(transitions))
    return MutationRecord(mutated, tuple(edits))


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (ValueError, FormatError) as e:
        return type(e), str(e)


def test_mutate_matches_listing():
    """Drawing the k-th legal edit gives the model, the edit list or the error
    that listing every legal edit and picking one gives, deterministic models
    and nondeterministic ones with tau alike."""
    cases = raised = with_tau = 0
    for states in range(1, 13):
        for deterministic in (True, False):
            for inputs, outputs, density in ((1, 1, 0.5), (2, 3, 0.3), (3, 0, 0.9)):
                for seed in range(100 * states, 100 * states + 3):
                    m = random_iolts(GenParams(states, inputs, outputs, deterministic,
                                               input_enabled=False, density=density,
                                               seed=seed))
                    with_tau += any(lab == TAU for _, lab, _ in m.transitions)
                    for rate in (0.05, 0.3, 1.0):
                        for grow in (0, 2):
                            got = _outcome(mutate, m, rate, seed, grow=grow)
                            assert got == _outcome(_listing_mutate, m, rate, seed, grow=grow)
                            cases += 1
                            raised += isinstance(got, tuple)
    assert cases == 1296 and 0 < raised < cases and with_tau


def test_random_iolts_pinned():
    """Seeded models stay bit for bit as recorded (the digest of every model,
    or error, over a grid of parameter sets)."""
    digest = hashlib.sha256()
    for states in range(1, 9):
        for inputs, outputs in ((0, 0), (0, 2), (1, 1), (2, 3)):
            for deterministic in (True, False):
                for input_enabled in (True, False):
                    for density in (0.0, 0.4, 1.0):
                        p = GenParams(states, inputs, outputs, deterministic, input_enabled,
                                      density, seed=states * 7 + inputs)
                        out = _outcome(lambda: serialize_model(random_iolts(p)))
                        digest.update(repr(out).encode())
    assert digest.hexdigest() == (
        "e47244579f41e4a1d71ef82bdfbc7b653b12efdd027e13255ccd75df6f6a3c3f")


@pytest.mark.parametrize("params, message", [
    (dict(density=1.5), r"^density must lie in \[0, 1\]$"),
    (dict(density=-0.1), r"^density must lie in \[0, 1\]$"),
    (dict(inputs=0), "^input-enabled model needs a nonempty input alphabet$"),
    (dict(inputs=0, outputs=0, input_enabled=False),
     "^cannot connect several states without any label$"),
])
def test_gen_params_rejected(params, message):
    p = GenParams(**{"states": 3, "inputs": 1, "outputs": 1, **params})
    with pytest.raises(ValueError, match=message):
        random_iolts(p)


@pytest.mark.parametrize("keep_fraction", [0.0, -0.5, 1.5])
def test_submachine_rejects_keep_fraction(m1, keep_fraction):
    with pytest.raises(ValueError, match=r"^keep_fraction must lie in \(0, 1\]$"):
        submachine(m1, keep_fraction, seed=0)


def test_generators_reject_delta(m1):
    completed = ensure_quiescence(m1)
    with pytest.raises(FormatError, match="^mutation expects a delta-free model$"):
        mutate(completed, 0.5, seed=0)
    with pytest.raises(FormatError, match="^submachine extraction expects a delta-free model$"):
        submachine(completed, 0.5, seed=0)


def test_mutate_rejects_negative_grow(m1):
    with pytest.raises(ValueError, match="^grow must be >= 0$"):
        mutate(m1, 0.5, seed=0, grow=-1)


def test_mutate_runs_out_of_legal_edits():
    """A one-state self-loop on the only input can be neither retargeted nor
    relabelled, so no rate can be met."""
    m = parse_model("states: s0\ninitial: s0\ninputs: a\noutputs: x\ntransitions:\ns0 a s0\n")
    with pytest.raises(ValueError, match="^not enough legal edits to reach the requested rate$"):
        mutate(m, 1.0, seed=0)


@pytest.mark.parametrize("inputs, outputs", [(-1, 1), (1, -3)])
def test_negative_token_counts_rejected(inputs, outputs):
    p = GenParams(2, inputs, outputs, input_enabled=False)
    with pytest.raises(ValueError, match="^token count must be >= 0$"):
        random_iolts(p)


def test_splitmix_below_needs_a_positive_bound():
    with pytest.raises(ValueError, match="^below\\(\\) needs a positive bound$"):
        SplitMix64(0).below(0)


def test_grown_state_avoids_taken_names():
    m = parse_model("states: s0 g0\ninitial: s0\ninputs: a\noutputs: x\n"
                    "transitions:\ns0 a g0\ng0 x s0\n")
    grown = mutate(m, 0.5, seed=3, grow=1).model
    assert grown.states == ("s0", "g0", "g0_")


def test_derived_records_pass_the_public_constructor(tmp_path):
    """Every model the package derives without the constructor's checks equals
    the model the constructor builds from the same fields, and every tester's
    step table passes the automaton constructor."""
    pruned = testers = 0
    for seed in range(100):
        n = 1 + seed % 12
        m = random_iolts(GenParams(n, ["a", "b"], ["x", "y"], deterministic=seed % 4 == 0,
                                   input_enabled=seed % 3 == 0, density=0.5, seed=seed))
        if seed % 4 == 3 and n > 2:  # cut every way into one state
            cut = 1 + seed % (n - 1)
            m = Iolts(m.states, m.initial, m.inputs, m.outputs,
                      tuple(t for t in m.transitions if t[2] != cut))
        assert ensure_quiescence(m).is_quiescence_completed, seed
        for derive in (ensure_quiescence, complete_quiescence, angelic_input_enable,
                       _prune_unreachable, lambda spec: submachine(spec, 0.7, seed)):
            d = derive(m)
            # replace runs the checking constructor, which raises FormatError
            # on a malformed record
            assert d == replace(d), seed
        pruned += len(_prune_unreachable(m).states) < n
        if m.is_deterministic:
            model = generate_fault_model(m, 2, limit=20)
            write_fault_model(model, str(tmp_path / str(seed)))
            for tp in model.tps + read_fault_model(str(tmp_path / str(seed))).tps:
                assert tp == replace(tp), seed
                replace(tp._automaton)
                testers += 1
    assert pruned >= 20 and testers >= 500
