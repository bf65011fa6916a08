"""The three checked records, ``Iolts``, ``TestPurpose`` and ``Dfsa``: their
constructors share one index rule and one name rule, and a record that a
constructor accepts is one the package can use."""

import random
import re
from dataclasses import fields, replace

import pytest

from ioltstest import (
    Dfsa,
    FormatError,
    Iolts,
    check_ioco,
    determinize,
    ensure_quiescence,
    parse_model,
    path_to_test_purpose,
    serialize_model,
    tp_from_text,
    tp_invariant_violations,
    tp_to_text,
)
from ioltstest import testgen

TESTER = path_to_test_purpose(("x",), ("a",), ("x",))  # states t0 pass fail


@pytest.mark.parametrize("build, message", [
    (lambda: Iolts(("s0", "s1"), 0, ("a",), ("x",), ((0, "a", 1.0), (1, "x", 0))),
     "transition endpoint out of range"),
    (lambda: Iolts(("s0", "s1"), 0, ("a",), ("x",), ((0, "a", 1), (True, "x", 0))),
     "transition endpoint out of range"),
    (lambda: Iolts(("s0", "s1"), True, ("a",), ("x",), ((0, "a", 1), (1, "x", 0))),
     "initial state out of range"),
    (lambda: Iolts((3,), 0, ("a",), ("x",), ()), "invalid state name 3"),
    (lambda: Iolts(("s0",), 0, (1.0,), ("x",), ()), "invalid input action name 1.0"),
    (lambda: replace(TESTER, initial=0.0), "initial state out of range"),
    (lambda: replace(TESTER, transitions=((0, "a", 1.0),)), "transition endpoint out of range"),
    (lambda: replace(TESTER, pass_index=2.0), "pass/fail indices must name the pass/fail states"),
    (lambda: replace(TESTER, fail_index=True), "pass/fail indices must name the pass/fail states"),
    (lambda: Dfsa(("a",), 1, 0, frozenset({0.0}), {(0, "a"): 0.0}),
     "transition endpoint out of range"),
    (lambda: Dfsa(("a",), 1, 0, frozenset({0.0}), {}), "accepting state out of range"),
    (lambda: Dfsa(("a",), 2.0, 0, frozenset(), {}), "automaton needs at least one state"),
    (lambda: Dfsa(("a",), True, 0, frozenset(), {}), "automaton needs at least one state"),
    (lambda: Dfsa((1,), 1, 0, frozenset(), {}), "automaton token 1 is not a string"),
    (lambda: Dfsa((["a"],), 1, 0, frozenset(), {}), "automaton token ['a'] is not a string"),
], ids=["iolts-float-dst", "iolts-bool-src", "iolts-bool-initial", "iolts-int-state",
        "iolts-float-input", "tp-float-initial", "tp-float-dst", "tp-float-pass",
        "tp-bool-fail", "dfsa-float-dst", "dfsa-float-accepting", "dfsa-float-size",
        "dfsa-bool-size", "dfsa-int-token", "dfsa-list-token"])
def test_constructors_refuse_what_they_cannot_use(build, message):
    """A float or bool index and a non-string name are refused where the
    record is built, with the message of the rule they break."""
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: Iolts("s0", 0, (), (), ()), "Iolts states must be a tuple"),
    (lambda: Iolts(["s0", "s1"], 0, (), (), ()), "Iolts states must be a tuple"),
    (lambda: Iolts(("s0",), 0, ["a"], (), ()), "Iolts inputs must be a tuple"),
    (lambda: Iolts(("s0",), 0, ("a",), (), [(0, "a", 0)]), "Iolts transitions must be a tuple"),
    (lambda: Iolts(("s0",), 0, ("a",), (), ((0, "a"),)),
     "transition (0, 'a') is not a (source, label, target) triple"),
    (lambda: Iolts(("s0",), 0, ("a",), (), ([0, "a", 0],)),
     "transition [0, 'a', 0] is not a (source, label, target) triple"),
    (lambda: replace(TESTER, states=list(TESTER.states)), "TestPurpose states must be a tuple"),
    (lambda: replace(TESTER, transitions=TESTER.transitions + ((0, "x", 1, 2),)),
     "transition (0, 'x', 1, 2) is not a (source, label, target) triple"),
    (lambda: Dfsa(("a",), 1, 0, frozenset(), [((0, "a"), 0)]), "Dfsa transitions must be a dict"),
    (lambda: Dfsa(("a",), 1, 0, {0}, {}), "Dfsa accepting must be a frozenset"),
    (lambda: Dfsa(["a"], 1, 0, frozenset(), {}), "Dfsa alphabet must be a tuple"),
    (lambda: Dfsa(("a",), 1, 0, frozenset(), {(0,): 0}),
     "transition (0, 0) is not a (source, label, target) triple"),
    (lambda: Dfsa(("a",), 1, 0, frozenset(), {0: 0}),
     "transition key 0 is not a (state, token) tuple"),
], ids=["iolts-str-states", "iolts-list-states", "iolts-list-inputs", "iolts-list-moves",
        "iolts-short-move", "iolts-list-move", "tp-list-states", "tp-long-move",
        "dfsa-list-moves", "dfsa-set-accepting", "dfsa-list-alphabet", "dfsa-short-key",
        "dfsa-int-key"])
def test_constructors_refuse_the_wrong_containers(build, message):
    """Each field declared a tuple, frozenset or dict must hold one, and each
    move must be a (source, label, target) tuple, before any other check: a
    string of states would read as its characters, a list is unhashable."""
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        build()


# every message the three constructors raise, whole
_MESSAGES = re.compile("|".join((
    r"model has no states", r"invalid (state|input action|output action) name .*",
    r"reserved name .* may not be used as an? (state|input action|output action)",
    r"duplicate state name .*", r"duplicate action name .*", r"alphabets not disjoint: .*",
    r"initial state out of range", r"transition endpoint out of range",
    r"unknown label .*", r"duplicate transition",
    r"duplicate state name in test purpose", r"test purpose alphabets overlap",
    r"reserved name used as a test purpose action",
    r"delta belongs to the observed side of a test purpose",
    r"invalid test purpose name .*", r"pass/fail indices must name the pass/fail states",
    r"automaton token .* is not a string", r"duplicate token in automaton alphabet",
    r"transition key .* is not a \(state, token\) tuple", r"automaton needs at least one state",
    r"accepting state out of range", r"transition token .* not in alphabet",
    r"automaton flagged complete is partial",
)))
# ints, negative ints, bools, floats and strings, names or not
_SCALARS = (0, 1, 2, -1, True, False, 0.0, 1.0, 2.5, -1.0,
            "s0", "s1", "a", "x", "delta", "tau", "pass", "fail", "t 0", "")


def _pick(rng, bad, good):
    """``good``, or with probability ``bad`` a scalar of the mixed pool."""
    return rng.choice(_SCALARS) if rng.random() < bad else good


def _accepted(build):
    """The record ``build()`` makes, or None if it raises FormatError with
    one of the constructors' messages."""
    try:
        return build()
    except FormatError as exc:
        assert _MESSAGES.fullmatch(str(exc)), str(exc)
        return None


def _draw_iolts(rng, bad):
    n = rng.randint(1, 3)
    inputs = tuple(_pick(rng, bad, t) for t in ("a", "b")[:rng.randint(0, 2)])
    outputs = tuple(_pick(rng, bad, t) for t in ("x", "y")[:rng.randint(0, 2)])
    labels = ("a", "b", "x", "y", "tau")
    moves = tuple((_pick(rng, bad, rng.randrange(n)), _pick(rng, bad, rng.choice(labels)),
                   _pick(rng, bad, rng.randrange(n))) for _ in range(rng.randint(0, 4)))
    return Iolts(tuple(_pick(rng, bad, f"s{i}") for i in range(n)),
                 _pick(rng, bad, rng.randrange(n)), inputs, outputs, moves)


def _draw_tester(rng, bad):
    """A suite tester with some fields redrawn, built by the constructor or by
    ``replace``; a good draw of an index is any index in range."""
    path = tuple(rng.choice(("a", "x", "y", "delta")) for _ in range(rng.randint(0, 2))) + (
        rng.choice(("x", "y", "delta")),)
    tp = path_to_test_purpose(path, ("a", "b"), ("x", "y"))
    n = len(tp.states)
    redrawn = {
        "states": tuple(_pick(rng, bad, s) for s in tp.states),
        "initial": _pick(rng, bad, rng.randrange(n)),
        "inputs": tuple(_pick(rng, bad, t) for t in tp.inputs),
        "outputs": tuple(_pick(rng, bad, t) for t in tp.outputs),
        "transitions": tuple(tuple(_pick(rng, bad, v) for v in move) for move in tp.transitions),
        "pass_index": _pick(rng, bad, rng.choice((tp.pass_index, rng.randrange(n)))),
        "fail_index": _pick(rng, bad, rng.choice((tp.fail_index, rng.randrange(n)))),
    }
    changed = {k: v for k, v in redrawn.items() if rng.random() < 0.5}
    if rng.random() < 0.5:
        return replace(tp, **changed)
    return testgen.TestPurpose(*(changed.get(f.name, getattr(tp, f.name)) for f in fields(tp)))


def _draw_dfsa(rng, bad):
    n = rng.randint(1, 3)
    alphabet = tuple(_pick(rng, bad, t) for t in ("a", "b")[:rng.randint(0, 2)])
    moves = {(_pick(rng, bad, s), _pick(rng, bad, t)): _pick(rng, bad, rng.randrange(n))
             for s in range(n) for t in alphabet if rng.random() < 0.7}
    accepting = frozenset(_pick(rng, bad, rng.randrange(n)) for _ in range(rng.randint(0, n)))
    return Dfsa(alphabet, _pick(rng, bad, n), _pick(rng, bad, rng.randrange(n)), accepting,
                moves, len(moves) == n * len(alphabet) and rng.random() < 0.8)


def test_an_accepted_record_is_usable():
    """Oracle: on seeded records whose fields are drawn from ints, negative
    ints, bools, floats and strings, each constructor either refuses with one of
    its messages or makes a record the package can use.  An ``Iolts`` reads
    back equal through the line format and, quiescence-completed, determinizes
    and conforms to itself; a tester spells its text and its invariant report,
    and a sound one reads back equal; an automaton answers ``moves`` at every
    state and ``accepts`` on every short word, as its moves walk it."""
    counts = dict.fromkeys(("iolts", "iolts refused", "tester", "sound tester",
                            "tester refused", "dfsa", "dfsa refused"), 0)
    rng = random.Random(2027)
    for _ in range(1500):
        bad = rng.choice((0.0, 0.05, 0.2, 0.5))
        model = _accepted(lambda: _draw_iolts(rng, bad))
        counts["iolts" if model else "iolts refused"] += 1
        if model:
            assert parse_model(serialize_model(model)) == model
            if model.has_delta and not model.is_quiescence_completed:
                with pytest.raises(FormatError, match="^model mentions delta but is not"):
                    ensure_quiescence(model)
            else:
                replace(determinize(ensure_quiescence(model)))  # passes its constructor
                assert check_ioco(model, model).conforms

        tp = _accepted(lambda: _draw_tester(rng, bad))
        counts["tester" if tp else "tester refused"] += 1
        if tp:
            text = tp_to_text(tp)
            if tp_invariant_violations(tp) == []:
                counts["sound tester"] += 1
                assert tp_from_text(text) == tp

        dfsa = _accepted(lambda: _draw_dfsa(rng, bad))
        counts["dfsa" if dfsa else "dfsa refused"] += 1
        if dfsa:
            table = [dict(dfsa.moves(s)) for s in range(dfsa.n_states)]
            assert all(type(t) is int and 0 <= t < dfsa.n_states
                       for row in table for t in row.values())
            for word in [()] + [(t,) for t in dfsa.alphabet] + [
                    (t, u) for t in dfsa.alphabet for u in dfsa.alphabet]:
                state = dfsa.initial
                for tok in word:
                    state = table[state].get(tok) if state is not None else None
                assert dfsa.accepts(word) is (state in dfsa.accepting)
    assert min(counts.values()) > 50, counts
