"""The three checked records, ``Iolts``, ``TestPurpose`` and ``Dfsa``: their
constructors share one index rule and one name rule, and a record that a
constructor accepts is one the package can use.  Every public entry checks
the counts, fractions, seeds, flags and texts it takes by the one scalar rule.
No record stores a value its other fields determine."""

import random
import re
from dataclasses import fields, replace

import pytest

from ioltstest import (
    DELTA,
    Dfsa,
    FormatError,
    GenParams,
    Iolts,
    Multigraph,
    RunReport,
    Verdict,
    angelic_input_enable,
    bounded_language,
    build_multigraph,
    check_ioco,
    check_lang,
    compile_regex,
    complete_quiescence,
    determinize,
    empty_language,
    ensure_quiescence,
    enumerate_fault_paths,
    generate_fault_model,
    ioco_desirable_language,
    mutate,
    parse_model,
    path_to_test_purpose,
    random_iolts,
    run_fault_model,
    serialize_model,
    submachine,
    tp_from_text,
    tp_invariant_violations,
    tp_to_text,
    traces_bounded,
)
from ioltstest import modelgen, testgen

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
                moves)


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


# --- the scalar rules: every count, fraction, seed, flag and text an entry takes ---

_SPEC = parse_model("states: s0 s1\ninitial: s0\ninputs: a\noutputs: x y\n"
                    "transitions:\ns0 a s1\ns1 x s0\ns1 y s1\n")
_COMPLETED = ensure_quiescence(_SPEC)
_GRAPH = build_multigraph(_COMPLETED, 1)
_SUITE = generate_fault_model(_SPEC, 1, 5)


def _generated(**params):
    return random_iolts(GenParams(**{"states": 3, "inputs": 1, "outputs": 1, **params}))


_NOT_COUNTS = (True, 2.5, "2", None)  # a bool, a float, a str and None are no count
_NOT_NUMBERS = (True, "2", None)  # nor a fraction; 2.5 is one, out of range
_NOT_FLAGS = (1, 2.5, "2", None)  # a truthy stand-in is no flag
_NOT_TEXTS = (True, 2.5, None)

# entry -> (call on a value, error type, message, bad values: wrong types, then out of range)
_ENTRIES = {
    "build_multigraph m": (lambda v: build_multigraph(_COMPLETED, v), ValueError,
                           "state bound m must be >= 1", _NOT_COUNTS + (0,)),
    "enumerate_fault_paths limit": (lambda v: enumerate_fault_paths(_GRAPH, v), ValueError,
                                    "path limit must be >= 1", _NOT_COUNTS + (0,)),
    "generate_fault_model limit": (lambda v: generate_fault_model(_SPEC, 1, v), ValueError,
                                   "path limit must be >= 1", _NOT_COUNTS + (0,)),
    "Dfsa n_states": (lambda v: Dfsa(("a",), v, 0, frozenset(), {}), FormatError,
                      "automaton needs at least one state", _NOT_COUNTS + (0,)),
    "traces_bounded depth": (lambda v: traces_bounded(_COMPLETED, v), ValueError,
                             "depth must be >= 0", _NOT_COUNTS + (-1,)),
    "bounded_language depth": (lambda v: bounded_language(determinize(_COMPLETED), v),
                               ValueError, "depth must be >= 0", _NOT_COUNTS + (-1,)),
    "GenParams states": (lambda v: _generated(states=v), ValueError,
                         "state count must be >= 1", _NOT_COUNTS + (0,)),
    "GenParams inputs": (lambda v: _generated(inputs=v), ValueError,
                         "token count must be >= 0", _NOT_COUNTS + (-1, "ab")),
    "GenParams outputs": (lambda v: _generated(outputs=v), ValueError,
                          "token count must be >= 0", _NOT_COUNTS + (-1, "xy")),
    "mutate grow": (lambda v: mutate(_SPEC, 0.5, 1, grow=v), ValueError, "grow must be >= 0",
                    _NOT_COUNTS + (-1,)),
    "submachine max_attempts": (lambda v: submachine(_SPEC, 0.5, 1, max_attempts=v),
                                ValueError, "max_attempts must be >= 0", _NOT_COUNTS + (-1,)),
    "GenParams density": (lambda v: _generated(density=v), ValueError,
                          "density must lie in [0, 1]", _NOT_NUMBERS + (-0.5, 1.5)),
    "mutate rate": (lambda v: mutate(_SPEC, v, 1), ValueError, "rate must lie in (0, 1]",
                    _NOT_NUMBERS + (0, 1.5)),
    "submachine keep_fraction": (lambda v: submachine(_SPEC, v, 1), ValueError,
                                 "keep_fraction must lie in (0, 1]", _NOT_NUMBERS + (0, 2.5)),
    "GenParams seed": (lambda v: _generated(seed=v), ValueError, "seed must be an int",
                       _NOT_COUNTS),
    "mutate seed": (lambda v: mutate(_SPEC, 0.5, v), ValueError, "seed must be an int",
                    _NOT_COUNTS),
    "submachine seed": (lambda v: submachine(_SPEC, 1, v), ValueError,
                        "seed must be an int", _NOT_COUNTS),
    "GenParams deterministic": (lambda v: _generated(deterministic=v), ValueError,
                                "deterministic must be a bool", _NOT_FLAGS),
    "GenParams input_enabled": (lambda v: _generated(input_enabled=v), ValueError,
                                "input_enabled must be a bool", _NOT_FLAGS + (0,)),
    "run_fault_model fail_fast": (lambda v: run_fault_model(_SPEC, _SUITE, fail_fast=v),
                                  ValueError, "fail_fast must be a bool", _NOT_FLAGS),
    "parse_model text": (parse_model, FormatError, "model or tester text must be a str",
                         _NOT_TEXTS + (b"states: s0",)),
    "tp_from_text text": (tp_from_text, FormatError, "model or tester text must be a str",
                          _NOT_TEXTS + (b"states: t0",)),
    "compile_regex source": (lambda v: compile_regex(v, ["a"]), FormatError,
                             "regex source must be a str", _NOT_TEXTS + (b"a",)),
}
_ROWS = [(name, value) for name, entry in _ENTRIES.items() for value in entry[3]]


@pytest.mark.parametrize("name, value", _ROWS, ids=[f"{n}={v!r}" for n, v in _ROWS])
def test_each_entry_refuses_a_bad_scalar_with_its_message(name, value):
    """Oracle: every count, fraction, seed, flag and text a public entry takes
    is checked where it enters by the one scalar rule of its kind: a value of
    the wrong type or out of range ends in the entry's ``ValueError`` or
    ``FormatError`` and its one-line message, never in another exception."""
    call, error, message, _ = _ENTRIES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


def test_edge_values_stay_valid():
    """The bounds are inclusive where the messages say so, and any int is a
    seed: a negative one and one past 64 bits draw as their low 64 bits do."""
    assert traces_bounded(_COMPLETED, 0) == {()}
    assert bounded_language(determinize(_COMPLETED), 0) == {()}
    assert mutate(_SPEC, 1, 1).edits and mutate(_SPEC, 1.0, 1) == mutate(_SPEC, 1, 1)
    assert submachine(_SPEC, 1, 1) is _SPEC
    assert submachine(_SPEC, 0.5, 1, max_attempts=0) is _SPEC  # the spec itself
    assert _generated(density=1) == _generated(density=1.0)
    assert _generated(seed=-1) == _generated(seed=(1 << 64) - 1)
    assert _generated(seed=2**70 + 5) == _generated(seed=5)
    assert mutate(_SPEC, 0.5, -1) == mutate(_SPEC, 0.5, (1 << 64) - 1)
    assert Dfsa(("a",), 1, 0, frozenset(), {(0, "a"): 0}).complete is True


def test_has_delta_is_delta_among_the_outputs():
    """No model, parsed, generated or derived, holds a delta move without
    delta among its outputs, so ``has_delta`` need not scan the moves."""
    with pytest.raises(FormatError, match="^unknown label 'delta'$"):
        Iolts(("s0",), 0, ("a",), ("x",), ((0, "delta", 0),))
    for seed in range(40):
        m = random_iolts(GenParams(1 + seed % 5, ["a", "b"], ["x", "y"],
                                   deterministic=seed % 2 == 0, input_enabled=seed % 3 == 0,
                                   seed=seed))
        derived = [m, ensure_quiescence(m), complete_quiescence(m), angelic_input_enable(m),
                   submachine(m, 0.5, seed), modelgen._prune_unreachable(m)]
        try:
            derived.append(mutate(m, 0.3, seed, grow=seed % 3).model)
        except ValueError:  # too few legal edits, or no transitions
            pass
        for model in derived:
            moves = any(label == DELTA for _, label, _ in model.transitions)
            assert model.has_delta is (DELTA in model.outputs) and (not moves or model.has_delta)


@pytest.mark.parametrize("record", [
    Dfsa(("a",), 2, 0, frozenset({1}), {(0, "a"): 1}),
    Iolts(("s0", "s1"), 0, ("a",), ("x",), ((0, "a", 1), (1, "x", 0))),
    TESTER,
], ids=["Dfsa", "Iolts", "TestPurpose"])
def test_built_takes_one_value_per_field(record):
    """``_built`` makes a record from exactly one value per field in declaration
    order: a value too many or too few is refused, never dropped or defaulted."""
    kind, values = type(record), [getattr(record, f.name) for f in fields(record)]
    built = kind._built(*values)
    assert [getattr(built, f.name) for f in fields(record)] == values
    for miscounted in (values + [values[-1]], values[:-1]):
        with pytest.raises(ValueError):
            kind._built(*miscounted)


def test_derived_values_are_no_fields():
    """Whether an automaton is total, a verdict conforms, a run passes and how
    many states a multigraph has are computed, not stored beside what decides them."""
    assert [f.name for f in fields(Dfsa)] == [
        "alphabet", "n_states", "initial", "accepting", "transitions"]
    assert [f.name for f in fields(Verdict)] == ["witnesses", "stats"]
    assert [f.name for f in fields(RunReport)] == ["results", "elapsed_ms"]
    assert [f.name for f in fields(Multigraph)] == ["m", "initial", "rows"]


def test_computed_values_follow_their_rules():
    """On seeded verdicts (single and cover, ioco and language), runs (whole and
    fail-fast) and multigraphs, ``conforms`` is the absence of witnesses,
    ``overall`` is pass iff every result passed and ``n`` is the row count,
    which is the specification's state count."""
    seen = set()
    for seed in range(24):
        spec = random_iolts(GenParams(6, 3, 3, deterministic=False, input_enabled=False,
                                      density=0.5, seed=seed))
        iut = submachine(spec, 0.7, seed) if seed % 2 else mutate(spec, 0.3, seed).model
        d, f = ioco_desirable_language(spec), empty_language(determinize(
            ensure_quiescence(spec)).alphabet)
        for witness in ("single", "cover"):
            for v in (check_ioco(spec, iut, witness), check_lang(spec, iut, d, f, witness)):
                assert v.conforms is (not v.witnesses)
                seen.add(("conforms", v.conforms))
        det_spec = random_iolts(GenParams(1 + seed % 4, ["a", "b"], ["x", "y"],
                                          deterministic=True, input_enabled=True, seed=seed))
        cs = ensure_quiescence(det_spec)
        graph = build_multigraph(cs, 1 + seed % 3)
        assert graph.n == len(graph.rows) == len(cs.states)
        model = generate_fault_model(det_spec, m=2, limit=300)
        det_iut = random_iolts(GenParams(1 + seed % 3, ["a", "b"], ["x", "y"],
                                         deterministic=True, input_enabled=True, seed=seed + 99))
        for fail_fast in (False, True):
            report = run_fault_model(det_iut, model, fail_fast=fail_fast)
            passed = all(r.verdict == "pass" for r in report.results)
            assert report.overall == ("pass" if passed else "fail")
            seen.add(("overall", report.overall))
    assert seen == {("conforms", True), ("conforms", False), ("overall", "pass"),
                    ("overall", "fail")}
