"""Model format, quiescence completion, determinization, and the trace oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioltstest import (
    DELTA,
    FormatError,
    GenParams,
    Iolts,
    bounded_language,
    check_ioco,
    complete_quiescence,
    determinize,
    ensure_quiescence,
    parse_model,
    random_iolts,
    serialize_model,
    traces_bounded,
)
from conftest import M1_TEXT, M3_TEXT


def test_parse_m1(m1):
    assert m1.states == ("s0", "s1")
    assert m1.initial == 0
    assert m1.inputs == ("a",)
    assert m1.outputs == ("x",)
    assert m1.transitions == ((0, "a", 1), (1, "x", 0))


@pytest.mark.parametrize(
    "text, message",
    [
        ("states: s0\ninitial: s0\ninputs: a\noutputs: x\ntransitions:\ns0 q s0\n",
         "unknown label"),
        ("states: s0\ninitial: s0\ninputs: a\noutputs: a\ntransitions:\n",
         "alphabets not disjoint"),
        ("states: s0 s0\ninitial: s0\ninputs: a\noutputs: x\ntransitions:\n",
         "duplicate state"),
        ("states: s0\ninitial: s0\ninputs: tau\noutputs: x\ntransitions:\n",
         "reserved name"),
        ("states: s0\ninitial: s0\ninputs: tau\noutputs: x\ntransitions:\n",
         "^reserved name 'tau' may not be used as an input action$"),
        ("states: s0\ninitial: s0\ninputs: a\noutputs: pass\ntransitions:\n",
         "^reserved name 'pass' may not be used as an output action$"),
        ("states: s0\ninitial: s0\ninputs: delta\noutputs: x\ntransitions:\n",
         "delta"),
        ("states: s0\ninitial: s0\ninputs: a\noutputs: x\ntransitions:\ns0 a s9\n",
         "unknown state"),
        ("states: s0\ninitial: s0\ninputs: a\ntransitions:\n",
         "missing section"),
        ("states: s0\ninitial: s9\ninputs: a\noutputs: x\ntransitions:\n",
         "not declared"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(FormatError, match=message):
        parse_model(text)


@pytest.mark.parametrize("states, initial, inputs, outputs, transitions, message", [
    ((), 0, ("a",), ("x",), (), "^model has no states$"),
    (("s-0",), 0, ("a",), ("x",), (), "^invalid state name 's-0'$"),
    (("s0",), 0, ("a", "a"), ("x",), (), "^duplicate action name 'a'$"),
    (("s0",), 0, ("a",), ("x", "x"), (), "^duplicate action name 'x'$"),
    (("s0",), 1, ("a",), ("x",), (), "^initial state out of range$"),
    (("s0",), -1, ("a",), ("x",), (), "^initial state out of range$"),
    (("s0",), 0, ("a",), ("x",), ((0, "a", 1),), "^transition endpoint out of range$"),
    (("s0",), 0, ("a",), ("x",), ((-1, "a", 0),), "^transition endpoint out of range$"),
    (("s0",), 0, ("a",), ("x",), ((0, "a", 0), (0, "a", 0)), "^duplicate transition$"),
])
def test_constructor_errors(states, initial, inputs, outputs, transitions, message):
    with pytest.raises(FormatError, match=message):
        Iolts(states, initial, inputs, outputs, transitions)


def test_roundtrip_is_canonical(m1):
    assert serialize_model(m1) == M1_TEXT
    assert parse_model(serialize_model(m1)) == m1


def test_comments_are_ignored(m1):
    commented = "# generated\n" + M1_TEXT.replace("s0 a s1", "s0 a s1  # step")
    assert parse_model(commented) == m1


def test_completed_model_roundtrips(m1):
    c = complete_quiescence(m1)
    assert parse_model(serialize_model(c)) == c


def test_serialize_model_literal_text():
    """The written format, spelled out: comments first, an empty section as its
    bare header, a tau move as a line, and after quiescence completion delta
    last among the outputs with its loops after the model's transitions."""
    m = Iolts(("s0", "s1", "s2"), 0, (), ("x",), ((0, "tau", 1), (0, "x", 2)))
    assert serialize_model(m, comments=("first", "second")) == (
        "# first\n"
        "# second\n"
        "states: s0 s1 s2\n"
        "initial: s0\n"
        "inputs:\n"
        "outputs: x\n"
        "transitions:\n"
        "s0 tau s1\n"
        "s0 x s2\n")
    assert serialize_model(ensure_quiescence(m)) == (
        "states: s0 s1 s2\n"
        "initial: s0\n"
        "inputs:\n"
        "outputs: x delta\n"
        "transitions:\n"
        "s0 tau s1\n"
        "s0 x s2\n"
        "s1 delta s1\n"
        "s2 delta s2\n")


def test_quiescence_m1(m1):
    """Only s0 is quiescent: s1 emits x."""
    c = complete_quiescence(m1)
    assert c.outputs == ("x", DELTA)
    assert (0, DELTA, 0) in c.transitions
    assert all(t != (1, DELTA, 1) for t in c.transitions)
    assert c.is_quiescence_completed


def test_quiescence_single_state(m4):
    c = complete_quiescence(m4)
    assert (0, DELTA, 0) in c.transitions


def test_quiescence_skips_tau_loop():
    m = parse_model(
        "states: s0\ninitial: s0\ninputs: a\noutputs: x\ntransitions:\ns0 tau s0\n"
    )
    c = complete_quiescence(m)
    assert not any(label == DELTA for _, label, _ in c.transitions)


def test_quiescence_rejects_existing_delta(m1):
    c = complete_quiescence(m1)
    with pytest.raises(FormatError):
        complete_quiescence(c)


def test_ensure_quiescence_idempotent(m1):
    c = ensure_quiescence(m1)
    assert ensure_quiescence(c) is c


def test_completion_and_determinization_are_computed_once(m1):
    c = ensure_quiescence(m1)
    assert ensure_quiescence(m1) is c
    assert determinize(c) is determinize(c)
    # the caches take no part in equality or hashing
    twin = parse_model(M1_TEXT)
    assert twin == m1 and hash(twin) == hash(m1)
    assert ensure_quiescence(twin) == c and hash(ensure_quiescence(twin)) == hash(c)
    bad = parse_model(M1_TEXT.replace("outputs: x", "outputs: x delta"))
    for _ in range(2):  # a rejected model is rejected on every call
        with pytest.raises(FormatError, match="mentions delta"):
            ensure_quiescence(bad)


def test_determinize_m1(m1):
    d = determinize(complete_quiescence(m1))
    assert d.n_states == 2
    assert d.accepts(["a", "x"])
    assert d.accepts(["delta", "delta", "a"])
    assert not d.accepts(["a", "delta"])
    assert not d.accepts(["x"])


def test_determinize_deterministic_model_is_isomorphic(four_state):
    c = complete_quiescence(four_state)
    d = determinize(c)
    assert d.n_states == len(four_state.states)


def test_determinize_tau_closure():
    m = parse_model(
        "states: s0 s1\ninitial: s0\ninputs: a\noutputs: x\ntransitions:\n"
        "s0 tau s1\ns1 x s1\n"
    )
    d = determinize(complete_quiescence(m))
    assert d.accepts(["x"])
    assert d.accepts(["x", "x"])
    assert not d.accepts(["a"])


def test_determinize_requires_completion(m1):
    with pytest.raises(FormatError):
        determinize(m1)


def test_traces_depth_zero(m1):
    assert traces_bounded(complete_quiescence(m1), 0) == {()}


def test_traces_depth_two(m1):
    c = complete_quiescence(m1)
    assert traces_bounded(c, 2) == {
        (),
        ("delta",),
        ("a",),
        ("delta", "delta"),
        ("delta", "a"),
        ("a", "x"),
    }


def test_traces_prefix_closed(m1):
    words = traces_bounded(complete_quiescence(m1), 5)
    for w in words:
        assert w[:-1] in words or not w


@pytest.mark.parametrize("seed", range(12))
def test_traces_agree_with_determinization(seed):
    """Cross-oracle identity: exhaustive walk equals the automaton's language."""
    m = random_iolts(GenParams(states=1 + seed % 4, inputs=["a", "b"],
                               outputs=["x", "y"], deterministic=False,
                               input_enabled=False, density=0.4, seed=seed))
    c = ensure_quiescence(m)
    assert traces_bounded(c, 5) == bounded_language(determinize(c), 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_initial_quiescence_closure(seed):
    """When the initial delta move closes into a self-loop, leading deltas
    never change acceptance.  (A nondeterministic initial closure mixing
    quiescent and emitting states legitimately loses behavior on delta.)"""
    m = random_iolts(GenParams(states=1 + seed % 5, inputs=["a"], outputs=["x"],
                               deterministic=False, input_enabled=False,
                               density=0.35, seed=seed))
    c = ensure_quiescence(m)
    d = determinize(c)
    if d.step(d.initial, "delta") != d.initial:
        return
    for word in traces_bounded(c, 4):
        assert d.accepts(("delta",) + word) == d.accepts(word)


@pytest.mark.parametrize("initial", ["", "s0 s1"])
def test_initial_section_names_one_state(initial):
    text = f"states: s0 s1\ninitial: {initial}\ninputs: a\noutputs: x\ntransitions:\n"
    with pytest.raises(FormatError, match="^initial section must name exactly one state$"):
        parse_model(text)


def test_delta_edge_off_a_self_loop_is_not_a_completion():
    m = parse_model("states: s0 s1\ninitial: s0\ninputs: a\noutputs: x delta\n"
                    "transitions:\ns0 delta s1\ns1 a s0\n")
    assert not m.is_quiescence_completed
    with pytest.raises(FormatError, match="mentions delta"):
        ensure_quiescence(m)


def test_traces_bounded_rejects_bad_arguments(m1):
    with pytest.raises(ValueError, match="^depth must be >= 0$"):
        traces_bounded(complete_quiescence(m1), -1)
    with pytest.raises(FormatError, match="^traces_bounded requires a quiescence-completed"):
        traces_bounded(m1, 2)


def test_a_parsed_model_is_checked_once(monkeypatch):
    """The constructor's checks run when a model is parsed; its quiescence
    completion, which every verdict builds, is not checked again."""
    checks, post_init = [0], Iolts.__post_init__

    def counted(self):
        checks[0] += 1
        post_init(self)

    monkeypatch.setattr(Iolts, "__post_init__", counted)
    ensure_quiescence(parse_model(M1_TEXT))
    assert checks == [1]
    check_ioco(parse_model(M1_TEXT), parse_model(M3_TEXT))
    assert checks == [3]
