"""Synchronous-product test runs and report aggregation."""

import functools
import importlib
import pkgutil
import re
import typing
from dataclasses import replace

import pytest

import ioltstest
from ioltstest import (
    AlphabetMismatchError,
    FaultModel,
    FormatError,
    GenParams,
    Iolts,
    SplitMix64,
    TpResult,
    check_ioco,
    determinize,
    ensure_quiescence,
    generate_fault_model,
    mutate,
    parse_model,
    path_to_test_purpose,
    random_iolts,
    report_json,
    run_fault_model,
    run_tp,
    submachine,
    testgen,
    tp_from_text,
    tp_invariant_violations,
    traces_bounded,
)
from ioltstest.fsa import _first_word


@pytest.fixture
def tp_x():
    """Fails when the implementation emits x before any stimulus."""
    return path_to_test_purpose(("x",), inputs=("a",), outputs=("x",))


def test_run_pass_on_quiet_model(m1, tp_x):
    verdict, witness, incomplete = run_tp(m1, tp_x)
    assert verdict == "pass"
    assert witness is None
    assert not incomplete


def test_run_fail_with_witness(m3, tp_x):
    verdict, witness, _ = run_tp(m3, tp_x)
    assert verdict == "fail"
    assert witness == ("x",)


def test_fail_witness_replays_to_fail(m1, m3):
    """Replaying a fail witness on the product re-reaches (fail, iut-state)."""
    from ioltstest import determinize, ensure_quiescence

    model = generate_fault_model(m1, m=2, limit=50)
    di = determinize(ensure_quiescence(m3))
    report = run_fault_model(m3, model)
    for r in report.results:
        if r.verdict != "fail":
            continue
        t, q = model.tps[r.index].initial, di.initial
        for tok in r.witness:
            t = model.tps[r.index].step(t, tok)
            q = di.step(q, tok)
            assert t is not None and q is not None
        assert t == model.tps[r.index].fail_index


def test_unreachable_fail_state_passes(m1):
    # t0 expects output y first, which m-like models never emit at the start
    tp = path_to_test_purpose(("a", "y"), inputs=("a",), outputs=("x", "y"))
    iut = parse_model(
        "states: q0 q1\ninitial: q0\ninputs: a\noutputs: x y\ntransitions:\n"
        "q0 a q1\nq1 x q0\n"
    )
    verdict, witness, _ = run_tp(iut, tp)
    assert verdict == "pass"
    assert witness is None


def test_incomplete_run_flagged(tp_x):
    # tau livelock: no outputs, no quiescence, stimulus a undefined
    iut = parse_model(
        "states: q0\ninitial: q0\ninputs: a\noutputs: x\ntransitions:\nq0 tau q0\n"
    )
    verdict, witness, incomplete = run_tp(iut, tp_x)
    assert verdict == "pass"
    assert incomplete


def test_failing_run_is_never_incomplete():
    # the tester fails on x x; on y it reaches t2, where the implementation is
    # stuck in a tau livelock, before the search reaches fail
    iut = parse_model(
        "states: q0 q1 q2 q3\ninitial: q0\ninputs: a\noutputs: x y\ntransitions:\n"
        "q0 x q1\nq0 y q2\nq1 x q3\nq2 tau q2\n"
    )
    tp = tp_from_text(
        "states: t0 t1 t2 pass fail\ninitial: t0\ninputs: x y delta\noutputs: a\n"
        "transitions:\nt0 x t1\nt0 y t2\nt0 delta pass\nt0 a pass\n"
        "t1 x fail\nt1 y pass\nt1 delta pass\nt1 a pass\n"
        "t2 x pass\nt2 y pass\nt2 delta pass\nt2 a pass\n"
        "pass x pass\npass y pass\npass delta pass\n"
        "fail x fail\nfail y fail\nfail delta fail\n"
    )
    assert run_tp(iut, tp) == ("fail", ("x", "x"), False)


def test_fail_witness_is_the_first_discovered_word():
    # the product key (fail, q0) is entered from t0 on x and, later in the
    # search, from t1 on x: the witness is the word of its first discovery
    iut = parse_model(
        "states: q0\ninitial: q0\ninputs: a\noutputs: x\ntransitions:\nq0 a q0\nq0 x q0\n"
    )
    tp = tp_from_text(
        "states: t0 t1 pass fail\ninitial: t0\ninputs: x delta\noutputs: a\n"
        "transitions:\nt0 a t1\nt0 x fail\nt0 delta pass\n"
        "t1 a pass\nt1 x fail\nt1 delta pass\n"
        "pass x pass\npass delta pass\nfail x fail\nfail delta fail\n"
    )
    assert run_tp(iut, tp) == ("fail", ("x",), False)


def test_witness_ties_follow_the_tester_order():
    """Two one-token words reach fail; the tester lists x first, so x is the
    witness whichever order the implementation declares its outputs in."""
    tp = tp_from_text(
        "states: t0 pass fail\ninitial: t0\ninputs: x y delta\noutputs: a\n"
        "transitions:\nt0 a pass\nt0 x fail\nt0 y fail\nt0 delta pass\n"
        "pass x pass\npass y pass\npass delta pass\n"
        "fail x fail\nfail y fail\nfail delta fail\n"
    )
    for outputs in ("x y", "y x"):
        iut = parse_model(f"states: q0\ninitial: q0\ninputs: a\noutputs: {outputs}\n"
                          "transitions:\nq0 x q0\nq0 y q0\n")
        assert run_tp(iut, tp) == ("fail", ("x",), False), outputs


# the hand-broken testers of test_testgen.test_invariant_violation_messages:
# edits of the tester of "a x" over inputs a b, states t0 t1 pass fail = 0 1 2 3
@pytest.mark.parametrize("add, drop, message", [
    ((0, "x", 1), None, "nondeterministic at state t0 on x"),
    (None, (0, "delta", 2), "state t0 not input-enabled: misses ['delta']"),
    (None, (0, "a", 1), "state t0 offers 0 stimuli"),
    ((0, "b", 2), None, "state t0 offers 2 stimuli"),
    ((1, "delta", 0), (1, "delta", 2), "cycle outside pass/fail self-loops"),
    ((3, "x", 2), (3, "x", 3), "pass reachable from fail"),
    ((2, "x", 3), (2, "x", 2), "fail reachable from pass"),
], ids=["nondeterministic", "not-input-enabled", "no-stimulus", "two-stimuli",
        "cycle", "fail-to-pass", "pass-to-fail"])
def test_run_rejects_unsound_tester(add, drop, message):
    """run_tp checks its tester as tp_from_text does, before any run."""
    tp = path_to_test_purpose(("a", "x"), inputs=("a", "b"), outputs=("x",))
    transitions = [t for t in tp.transitions if t != drop] + ([add] if add else [])
    broken = replace(tp, transitions=tuple(transitions))
    iut = parse_model("states: q0 q1\ninitial: q0\ninputs: a b\noutputs: x\n"
                      "transitions:\nq0 a q1\nq1 x q0\n")
    with pytest.raises(FormatError, match=re.escape(f"invalid test purpose: {message}")):
        run_tp(iut, broken)


def _dag_tester(rng) -> tuple[testgen.TestPurpose, int]:
    """A random sound tester and its chain length: 1-5 chain states observing
    x y delta and emitting a or b, each move to a later chain state or to
    pass/fail."""
    k = 1 + rng.below(5)
    pass_idx, fail_idx = k, k + 1

    def target(i):
        j = i + 1 + rng.below(k - i + 1)
        return j if j < k else (pass_idx, fail_idx)[rng.below(2)]

    observed = ("x", "y", "delta")
    transitions = []
    for i in range(k):
        transitions.append((i, ("a", "b")[rng.below(2)], target(i)))
        transitions += [(i, tok, target(i)) for tok in observed]
    transitions += [(t, tok, t) for t in (pass_idx, fail_idx) for tok in observed]
    tp = testgen.TestPurpose(tuple(f"t{i}" for i in range(k)) + ("pass", "fail"), 0,
                             observed, ("a", "b"), tuple(transitions), pass_idx, fail_idx)
    assert tp_invariant_violations(tp) == []
    return tp, k


def _oracle_run(iut, tp, depth):
    """run_tp's result by definition, from the implementation's traces up to
    ``depth`` and the tester's transition list alone."""
    traces = traces_bounded(ensure_quiescence(iut), depth)
    moves = {}
    for src, tok, dst in tp.transitions:
        moves.setdefault(src, []).append((tok, dst))
    # every trace word the tester can follow, with the state it reaches
    reached, frontier = [], [((), tp.initial)]
    while frontier:
        word, t = frontier.pop()
        reached.append((word, t))
        if t not in (tp.pass_index, tp.fail_index):
            frontier += [(word + (tok,), d) for tok, d in moves[t] if word + (tok,) in traces]
    rank = {tok: r for r, tok in enumerate(tp.outputs + tp.inputs)}
    fails = [w for w, t in reached if t == tp.fail_index]
    if fails:
        return "fail", min(fails, key=lambda w: (len(w), [rank[tok] for tok in w])), False
    stuck = any(t not in (tp.pass_index, tp.fail_index)
                and all(w + (tok,) not in traces for tok, _ in moves[t])
                for w, t in reached)
    return "pass", None, stuck


def test_run_matches_definitional_oracle():
    """Random sound DAG testers against seeded nondeterministic implementations
    and their twins declaring inputs and outputs in reverse order: the verdict,
    the witness (least in the tester's order) and the incomplete flag are the
    oracle's for both twins."""
    failing = incomplete = 0
    for seed in range(600):
        rng = SplitMix64(0xDA6 + seed)
        tp, depth = _dag_tester(rng)
        iut = random_iolts(GenParams(states=1 + rng.below(4), inputs=["a", "b"],
                                     outputs=["x", "y"], deterministic=False,
                                     input_enabled=False, density=0.5,
                                     seed=rng.next_u64()))
        if seed % 3 == 0:
            iut = _livelock(iut, rng)
        expected = _oracle_run(iut, tp, depth)
        twin = Iolts(iut.states, iut.initial, iut.inputs[::-1], iut.outputs[::-1],
                     iut.transitions)
        assert run_tp(iut, tp) == expected, seed
        assert run_tp(twin, tp) == expected, seed
        failing += expected[0] == "fail"
        incomplete += expected[2]
    assert failing >= 200 and incomplete >= 5


def test_alphabet_compatibility_enforced(m1):
    tp = path_to_test_purpose(("y",), inputs=("a",), outputs=("y",))
    with pytest.raises(AlphabetMismatchError):
        run_tp(m1, tp)


def test_run_fault_model_aggregates(m1, m3):
    model = generate_fault_model(m1, m=2, limit=50)
    assert run_fault_model(m1, model).overall == "pass"
    report = run_fault_model(m3, model)
    assert report.overall == "fail"
    first_fail = next(r for r in report.results if r.verdict == "fail")
    assert first_fail.witness[0] == "x"


def test_empty_fault_model_passes(m1):
    empty = FaultModel((), (), 1, 2, 1000, False, ("a",), ("x", "delta"))
    assert run_fault_model(m1, empty).overall == "pass"


def test_model_without_inputs_is_refused_as_its_testers_are():
    """A hand-built model with a path but no input to emit is refused with the
    tester builder's message, not an IndexError; without paths it passes."""
    iut = Iolts(("q0", "q1"), 0, (), ("x", "y"), ((0, "x", 1),))
    model = FaultModel((), (("y",),), 1, 2, 1, True, (), ("x", "y", "delta"))
    message = "a tester needs at least one input to emit"
    for build in (lambda: path_to_test_purpose(("y",), (), ("x", "y")),
                  lambda: run_fault_model(iut, model)):
        with pytest.raises(FormatError, match=f"^{message}$"):
            build()
    assert run_fault_model(iut, replace(model, paths=(), truncated=False)).overall == "pass"


def test_fail_fast_stops_early(m3, m1):
    model = generate_fault_model(m1, m=2, limit=50)
    report = run_fault_model(m3, model, fail_fast=True)
    assert report.overall == "fail"
    assert len(report.results) < len(model.tps)


def test_parallel_matches_sequential(m1, m3):
    model = generate_fault_model(m1, m=2, limit=30)
    seq = run_fault_model(m3, model)
    par = run_fault_model(m3, model, workers=4)
    assert [r.verdict for r in seq.results] == [r.verdict for r in par.results]
    assert [r.witness for r in seq.results] == [r.witness for r in par.results]


def test_report_json_shape(m3, m1):
    model = generate_fault_model(m1, m=1, limit=10)
    payload = report_json(run_fault_model(m3, model))
    assert payload["overall"] == "fail"
    assert {"id", "verdict", "witness", "incomplete"} <= set(payload["tps"][0])
    assert "elapsed_ms" in payload


def test_conforming_submachines_pass_exhaustive_models():
    """Soundness: an ioco-conforming implementation passes every tester."""
    for seed in range(8):
        spec = random_iolts(GenParams(states=2 + seed % 2, inputs=["a", "b"],
                                      outputs=["x", "y"], deterministic=True,
                                      input_enabled=False, density=0.4,
                                      seed=seed))
        model = generate_fault_model(spec, m=2, limit=5000)
        if not model.exhaustive:
            continue
        iut = submachine(spec, 0.7, seed)
        assert check_ioco(spec, iut).conforms
        assert run_fault_model(iut, model).overall == "pass"


def _livelock(iut, rng):
    """Drop the outputs of a random half of the states and give them tau self-loops."""
    picked = {s for s in range(len(iut.states)) if rng.below(2)}
    outputs = set(iut.outputs)
    kept = [t for t in iut.transitions if not (t[0] in picked and t[1] in outputs)]
    loops = [(s, "tau", s) for s in sorted(picked) if (s, "tau", s) not in kept]
    return replace(iut, transitions=tuple(kept + loops))


def test_path_walk_matches_product_runs():
    """run_fault_model's path walk gives run_tp's verdict, witness and flag per tester."""
    failing = incomplete = 0
    for seed in range(30):
        rng = SplitMix64(0x3A1C + seed)
        spec = random_iolts(GenParams(states=1 + rng.below(6), inputs=["a", "b"],
                                      outputs=["x", "y"], deterministic=True,
                                      input_enabled=False, density=0.5,
                                      seed=rng.next_u64()))
        model = generate_fault_model(spec, m=1 + rng.below(3), limit=60)
        nondet = random_iolts(GenParams(states=1 + rng.below(5), inputs=["a", "b"],
                                        outputs=["x", "y"], deterministic=False,
                                        input_enabled=False, density=0.4,
                                        seed=rng.next_u64()))
        try:
            mutant = mutate(spec, 0.3, seed).model
        except ValueError:  # too few transitions to edit at that rate
            mutant = nondet
        iuts = (nondet, mutant, submachine(spec, 0.5, seed),
                _livelock(nondet, rng), _livelock(mutant, rng))
        for iut in iuts:
            expected = tuple(TpResult(i, *run_tp(iut, tp)) for i, tp in enumerate(model.tps))
            assert run_fault_model(iut, model).results == expected
            failing += sum(r.verdict == "fail" for r in expected)
            incomplete += sum(r.incomplete for r in expected)
    assert failing and incomplete


def _whole_det_runs(iut, model):
    """``run_fault_model(iut, model).results`` and the ``run_tp`` triple of every
    tester, by runs over det(IUT) built whole: the reference for the runs that
    step it on demand."""
    di = determinize(ensure_quiescence(iut))
    step = di.transitions.get
    results = []
    for i, path in enumerate(model.paths):
        q = di.initial
        for tok in path:
            if (nxt := step((q, tok))) is None:
                stimulus = tok if tok in model.inputs else model.inputs[0]
                stuck = all(step((q, t)) is None for t in (*model.outputs, stimulus))
                results.append(TpResult(i, "pass", None, stuck))
                break
            q = nxt
        else:
            results.append(TpResult(i, "fail", path, False))
    triples = []
    for tp in model.tps:
        a, terminal, stuck = tp._automaton, (tp.pass_index, tp.fail_index), False
        rows = [a.moves(s) for s in range(a.n_states)]

        def successors(key):
            nonlocal stuck
            if key[0] in terminal:
                return ()
            found = [(tok, (qa, qb)) for tok, qa in rows[key[0]]
                     if (qb := step((key[1], tok))) is not None]
            stuck = stuck or not found
            return found

        word = _first_word((tp.initial, di.initial), successors,
                           lambda key: key[0] == tp.fail_index)
        triples.append(("pass", None, stuck) if word is None else ("fail", word, False))
    return tuple(results), triples


def test_runs_match_whole_det_reference():
    """Seeded deterministic specs against nondeterministic, mutant and
    livelocking implementations, each also as a twin declaring its alphabets
    in reverse order: both runs give the whole-det reference's results, and
    neither builds det(IUT) whole."""
    pairs = failing = incomplete = 0
    for seed in range(70):
        rng = SplitMix64(0x51E9 + seed)
        spec = random_iolts(GenParams(states=1 + rng.below(5), inputs=["a", "b"],
                                      outputs=["x", "y"], deterministic=True,
                                      input_enabled=False, density=0.5,
                                      seed=rng.next_u64()))
        model = generate_fault_model(spec, m=1 + rng.below(2), limit=30)
        nondet = random_iolts(GenParams(states=1 + rng.below(5), inputs=["a", "b"],
                                        outputs=["x", "y"], deterministic=False,
                                        input_enabled=False, density=0.4,
                                        seed=rng.next_u64()))
        try:
            mutant = mutate(spec, 0.3, seed).model
        except ValueError:  # too few transitions to edit at that rate
            mutant = submachine(spec, 0.5, seed)
        for iut in (nondet, mutant, _livelock(nondet, rng)):
            twin = Iolts(iut.states, iut.initial, iut.inputs[::-1], iut.outputs[::-1],
                         iut.transitions)
            for run_iut in (iut, twin):
                results = run_fault_model(run_iut, model).results
                triples = [run_tp(run_iut, tp) for tp in model.tps]
                assert "_determinization" not in vars(ensure_quiescence(run_iut)), seed
                assert (results, triples) == _whole_det_runs(run_iut, model), seed
                failing += sum(r.verdict == "fail" for r in results)
                incomplete += sum(r.incomplete for r in results)
            pairs += 1
    assert pairs >= 200 and failing and incomplete


def test_both_runs_refuse_a_mismatched_implementation_alike(m1):
    """``run_tp`` and ``run_fault_model`` share one entry step: the same check,
    with the same message, delta included on the observed side."""
    model = generate_fault_model(m1, m=2, limit=5)
    for iut in (replace(m1, outputs=("x", "y")), replace(m1, inputs=("a", "b"))):
        for run in (lambda: run_tp(iut, model.tps[0]), lambda: run_fault_model(iut, model)):
            with pytest.raises(AlphabetMismatchError,
                               match="^test purpose alphabets do not match the implementation's$"):
                run()


def test_every_function_resolves_its_annotations():
    """``typing.get_type_hints`` resolves the annotations of every function
    and method of the package: each name they use is imported where written."""
    def functions(owner, module_name):
        for value in vars(owner).values():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            elif isinstance(value, property):
                value = value.fget
            elif isinstance(value, functools.cached_property):
                value = value.func
            if getattr(value, "__module__", None) != module_name:
                continue
            if isinstance(value, type):
                yield from functions(value, module_name)
            elif callable(value):
                yield value

    checked = []
    for info in pkgutil.iter_modules(ioltstest.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"ioltstest.{info.name}")
        for function in functions(module, module.__name__):
            typing.get_type_hints(function)
            checked.append(f"{info.name}.{function.__qualname__}")
    assert {"testrun._open", "cli.main", "testgen.TestPurpose.step",
            "testgen.Multigraph.edges", "fsa._Record._built"} <= set(checked)
