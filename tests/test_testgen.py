"""Multigraph construction, fault-path enumeration, test-purpose completion."""

import json
import re
from dataclasses import replace

import pytest

from ioltstest import (
    DELTA,
    FaultModel,
    FormatError,
    GenParams,
    Multigraph,
    angelic_input_enable,
    build_multigraph,
    determinize,
    ensure_quiescence,
    enumerate_fault_paths,
    generate_fault_model,
    parse_model,
    path_to_test_purpose,
    random_iolts,
    read_fault_model,
    serialize_model,
    tp_from_text,
    tp_invariant_violations,
    tp_to_text,
    write_fault_model,
)
from ioltstest import testgen
from conftest import INPUT_ONLY_TEXT


def test_levels_four_state_m4(four_state):
    g = build_multigraph(ensure_quiescence(four_state), 4)
    assert g.levels == 17


def test_levels_and_node_count_m1(m1):
    g = build_multigraph(ensure_quiescence(m1), 2)
    assert g.levels == 5
    assert g.node_count == 11


def test_multigraph_rejects_bad_inputs(m1):
    with pytest.raises(ValueError):
        build_multigraph(ensure_quiescence(m1), 0)
    with pytest.raises(FormatError):
        build_multigraph(m1, 2)  # not quiescence-completed


def test_published_node_path(four_state):
    g = build_multigraph(ensure_quiescence(four_state), 4)
    assert g.replay("aabbx") == [(0, 0), (1, 0), (3, 0), (0, 1), (3, 1), "fail"]


def test_multigraph_acyclic(four_state, m1):
    for spec, m in ((four_state, 4), (m1, 3)):
        assert build_multigraph(ensure_quiescence(spec), m).is_acyclic


def test_fail_edges_cover_undefined_outputs(four_state):
    spec = ensure_quiescence(four_state)
    g = build_multigraph(spec, 2)
    defined = {(s, l) for s, l, _ in spec.transitions}
    outputs = set(spec.outputs)
    for (state, _), out in g.edges.items():
        fail_tokens = {tok for tok, target in out if target == "fail"}
        assert fail_tokens == {tok for tok in outputs
                               if (state, tok) not in defined}


def test_shortest_fault_path_m1(m1):
    g = build_multigraph(ensure_quiescence(m1), 2)
    assert enumerate_fault_paths(g, 1) == [("x",)]


def test_fault_paths_replay_to_fail(m1):
    g = build_multigraph(ensure_quiescence(m1), 2)
    for path in enumerate_fault_paths(g, 50):
        assert g.replay(path)[-1] == "fail"


def test_fault_paths_shortest_first(four_state):
    g = build_multigraph(ensure_quiescence(four_state), 4)
    lengths = [len(p) for p in enumerate_fault_paths(g, 100)]
    assert lengths == sorted(lengths)


def test_fault_path_prefix_in_spec_language(four_state):
    spec = ensure_quiescence(four_state)
    g = build_multigraph(spec, 2)
    det = determinize(spec)
    for path in enumerate_fault_paths(g, 60):
        assert det.accepts(path[:-1])
        assert not det.accepts(path)


def _node_table(spec, m):
    """Every (state, level) node's out-edges by the nested loop over all
    nodes, the reference for the multigraph's implicit successor function."""
    n, top = len(spec.states), m * len(spec.states)
    step = {(src, label): dst for src, label, dst in spec.transitions}
    outputs = set(spec.outputs)
    table = {}
    for i in range(n):
        for k in range(top + 1):
            out = []
            for tok in spec.observable_alphabet:
                j = step.get((i, tok))
                if j is not None:
                    if j > i:
                        out.append((tok, (j, k)))
                    elif k + 1 <= top:
                        out.append((tok, (j, k + 1)))
                elif tok in outputs:
                    out.append((tok, "fail"))
            table[(i, k)] = tuple(out)
    return table


def test_multigraph_matches_node_table():
    """Seeded specs of 1-8 states at m = 1-4: the edges derived from ``out``
    equal the full node table, in order, and stay acyclic."""
    for seed in range(40):
        spec = ensure_quiescence(random_iolts(GenParams(
            states=1 + seed % 8, inputs=["a", "b"], outputs=["x", "y"],
            input_enabled=seed % 3 != 0, seed=seed)))
        m = 1 + seed % 4
        g = build_multigraph(spec, m)
        assert list(g.edges.items()) == list(_node_table(spec, m).items())
        assert g.is_acyclic
        assert g.node_count == len(g.edges) + 1
        for path in enumerate_fault_paths(g, 200):
            assert g.replay(path)[-1] == "fail"


def test_tp_from_single_output_path():
    tp = path_to_test_purpose(("x",), inputs=("a",), outputs=("x",))
    assert tp.states == ("t0", "pass", "fail")
    table = {(tp.states[s], lab): tp.states[t] for s, lab, t in tp.transitions}
    assert table[("t0", "x")] == "fail"
    assert table[("t0", "delta")] == "pass"
    assert table[("t0", "a")] == "pass"
    assert table[("pass", "x")] == "pass"
    assert table[("fail", "delta")] == "fail"
    assert tp_invariant_violations(tp) == []


def test_tp_keeps_input_chain_edges():
    tp = path_to_test_purpose("aabbx", inputs=("a", "b"), outputs=("x",))
    # five chain states; outputs route to pass except the final x to fail
    assert len(tp.states) == 7
    assert tp.stimulus(0) == "a"
    assert tp.stimulus(2) == "b"
    assert tp.step(4, "x") == tp.fail_index
    assert tp_invariant_violations(tp) == []


def test_tp_rejects_malformed_paths():
    with pytest.raises(FormatError):
        path_to_test_purpose((), inputs=("a",), outputs=("x",))
    with pytest.raises(FormatError):
        path_to_test_purpose(("a",), inputs=("a",), outputs=("x",))  # ends on input
    with pytest.raises(FormatError):
        path_to_test_purpose(("z",), inputs=("a",), outputs=("x",))


def test_long_chain_tester_satisfies_invariants():
    tp = path_to_test_purpose(("a",) * 3000 + ("x",), ("a",), ("x",))
    assert tp_invariant_violations(tp) == []


# edits of the tester of "a x" over inputs a b: states t0 t1 pass fail = 0 1 2 3
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
def test_invariant_violation_messages(add, drop, message):
    tp = path_to_test_purpose(("a", "x"), inputs=("a", "b"), outputs=("x",))
    assert tp_invariant_violations(tp) == []
    transitions = [t for t in tp.transitions if t != drop] + ([add] if add else [])
    assert len(transitions) == len(tp.transitions) + (add is not None) - (drop is not None)
    broken = replace(tp, transitions=tuple(transitions))
    assert tp_invariant_violations(broken) == [message]


# fields of the tester of "a x" over input a: states t0 t1 pass fail = 0 1 2 3,
# observed x delta, emitted a
@pytest.mark.parametrize("fields, message", [
    (dict(states=("t0", "t0", "pass", "fail")), "^duplicate state name in test purpose$"),
    (dict(outputs=("a", "x")), "^test purpose alphabets overlap$"),
    (dict(outputs=("tau",)), "^reserved name used as a test purpose action$"),
    (dict(inputs=("x",), outputs=("a", "delta")),
     "^delta belongs to the observed side of a test purpose$"),
    (dict(transitions=((0, "q", 1),)), "^unknown label 'q' in test purpose$"),
    (dict(transitions=((0, "x", 4),)), "^transition endpoint out of range$"),
    (dict(transitions=((-1, "x", 0),)), "^transition endpoint out of range$"),
    (dict(pass_index=3), "^pass/fail indices must name the pass/fail states$"),
    (dict(initial=9), "^initial state out of range$"),
    (dict(initial=-1), "^initial state out of range$"),
    (dict(pass_index=9), "^pass/fail indices must name the pass/fail states$"),
    (dict(pass_index=-2), "^pass/fail indices must name the pass/fail states$"),
    (dict(fail_index=-1), "^pass/fail indices must name the pass/fail states$"),
], ids=["duplicate-state", "overlap", "reserved", "delta-emitted", "unknown-label",
        "endpoint-high", "endpoint-negative", "pass-names-fail", "initial-high",
        "initial-negative", "pass-high", "pass-negative", "fail-negative"])
def test_test_purpose_constructor_errors(fields, message):
    tp = path_to_test_purpose(("a", "x"), ("a",), ("x",))
    with pytest.raises(FormatError, match=message):
        replace(tp, **fields)


def test_generated_tps_satisfy_invariants():
    for seed in range(10):
        spec = random_iolts(GenParams(states=1 + seed % 3, inputs=["a", "b"],
                                      outputs=["x"], deterministic=True,
                                      input_enabled=False, density=0.5,
                                      seed=seed))
        model = generate_fault_model(spec, m=2, limit=80)
        for tp in model.tps:
            assert tp_invariant_violations(tp) == []


def test_exhaustive_model_m1(m1):
    model = generate_fault_model(m1, m=1, limit=1000)
    assert model.exhaustive
    assert model.levels == 3
    outputs = set(model.outputs) | {DELTA}
    for path in model.paths:
        assert path[-1] in outputs


def test_truncation_flagged(m1):
    model = generate_fault_model(m1, m=2, limit=3)
    assert model.truncated
    assert len(model.tps) == 3


def test_spec_without_outputs_yields_empty_exhaustive_model(monkeypatch):
    """Without outputs every state is quiescent, so delta is enabled everywhere
    and the multigraph has no fail edge.  The model is exhaustive and empty,
    and is found without walking the multigraph, whose path count grows
    exponentially with its levels."""
    out, calls = Multigraph.out, [0]

    def counted(self, node):
        calls[0] += 1
        return out(self, node)

    monkeypatch.setattr(Multigraph, "out", counted)
    model = generate_fault_model(parse_model(INPUT_ONLY_TEXT), m=3, limit=10)
    assert model.paths == () and model.tps == () and model.exhaustive
    assert calls == [0]


def test_default_limit_is_1000(m1):
    model = generate_fault_model(m1, m=3)
    assert model.limit == 1000


def test_tp_text_roundtrip():
    tp = path_to_test_purpose("aabbx", inputs=("a", "b"), outputs=("x",))
    assert tp_from_text(tp_to_text(tp)) == tp


def test_fault_model_directory_roundtrip(tmp_path, m1):
    model = generate_fault_model(m1, m=2, limit=10)
    target = tmp_path / "suite"
    write_fault_model(model, str(target))
    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["levels"] == 5
    assert manifest["m"] == 2 and manifest["n"] == 2
    assert manifest["tp_count"] == len(model.tps)
    loaded = read_fault_model(str(target))
    assert loaded == model


def test_written_tester_file_literal_bytes(tmp_path):
    """The tester file of the 2-token path ``a x`` over inputs a b and outputs
    x delta: the path comment, the sections, the chain, each chain state's pass
    edges, then the pass/fail self-loops."""
    path = ("a", "x")
    model = FaultModel((path_to_test_purpose(path, ("a", "b"), ("x",)),), (path,),
                       1, 1, 1, False, ("a", "b"), ("x", "delta"))
    write_fault_model(model, str(tmp_path))
    assert (tmp_path / "tp-0000.iolts").read_bytes() == (
        b"# fault path: a x\n"
        b"states: t0 t1 pass fail\n"
        b"initial: t0\n"
        b"inputs: x delta\n"
        b"outputs: a b\n"
        b"transitions:\n"
        b"t0 a t1\n"
        b"t1 x fail\n"
        b"t0 x pass\n"
        b"t0 delta pass\n"
        b"t1 delta pass\n"
        b"t1 a pass\n"
        b"pass x pass\n"
        b"pass delta pass\n"
        b"fail x fail\n"
        b"fail delta fail\n")
    assert read_fault_model(str(tmp_path)) == model


def test_read_fault_model_checks_levels(tmp_path, m1):
    """A manifest's levels must be m*n + 1, 5 at m = n = 2."""
    write_fault_model(generate_fault_model(m1, m=2, limit=10), str(tmp_path))
    manifest_file = tmp_path / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    assert manifest["levels"] == 5
    manifest_file.write_text(json.dumps(dict(manifest, levels=6)))
    with pytest.raises(FormatError, match=r"^manifest.json needs levels of m\*n \+ 1$"):
        read_fault_model(str(tmp_path))


def test_rewrite_removes_stale_testers_only(tmp_path, four_state):
    """Writing 3 paths where 8 were written removes tp-0003 ... tp-0007 and
    leaves files of other names alone."""
    target = tmp_path / "suite"
    write_fault_model(generate_fault_model(four_state, m=2, limit=8), str(target))
    (target / "notes.txt").write_text("kept\n")
    (target / "tp-0005.iolts.bak").write_text("kept\n")
    model = generate_fault_model(four_state, m=2, limit=3)
    write_fault_model(model, str(target))
    assert sorted(p.name for p in target.iterdir()) == [
        "manifest.json", "notes.txt", "tp-0000.iolts", "tp-0001.iolts", "tp-0002.iolts",
        "tp-0005.iolts.bak"]
    assert read_fault_model(str(target)) == model


def test_replay_rejects_words_the_multigraph_lacks(m1):
    g = build_multigraph(ensure_quiescence(m1), 2)
    assert g.replay(["x"])[-1] == "fail"
    with pytest.raises(ValueError, match="^word continues past fail$"):
        g.replay(["x", "a"])
    with pytest.raises(ValueError, match="^label 'a' undefined at node "):
        g.replay(["a", "a"])


@pytest.mark.parametrize("call, message", [
    (lambda m1, g: enumerate_fault_paths(g, 1.5), "path limit must be >= 1"),
    (lambda m1, g: enumerate_fault_paths(g, True), "path limit must be >= 1"),
    (lambda m1, g: generate_fault_model(m1, 2, 2.5), "path limit must be >= 1"),
    (lambda m1, g: generate_fault_model(m1, 2, True), "path limit must be >= 1"),
    (lambda m1, g: generate_fault_model(m1, 2.5, 3), "state bound m must be >= 1"),
    (lambda m1, g: generate_fault_model(m1, True, 3), "state bound m must be >= 1"),
    (lambda m1, g: build_multigraph(ensure_quiescence(m1), 2.0), "state bound m must be >= 1"),
], ids=["paths-float", "paths-bool", "model-float-limit", "model-bool-limit",
        "model-float-m", "model-bool-m", "multigraph-float-m"])
def test_generators_take_int_bounds_only(m1, call, message):
    """``m`` and ``limit`` are ints of at least 1, a bool not counting, as in
    the manifest: a float limit would never be reached, and a float or bool m
    would make a model that ``write_fault_model`` refuses."""
    g = build_multigraph(ensure_quiescence(m1), 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(m1, g)


def test_path_limit_must_be_positive(m1):
    g = build_multigraph(ensure_quiescence(m1), 2)
    with pytest.raises(ValueError, match="^path limit must be >= 1$"):
        enumerate_fault_paths(g, 0)
    with pytest.raises(ValueError, match="^path limit must be >= 1$"):
        generate_fault_model(m1, 2, limit=0)


# the first error of a bad (path, inputs, outputs), in check order: no input,
# empty path, unknown label, last token not observed, then the alphabets
@pytest.mark.parametrize("path, inputs, outputs, message", [
    (("x",), (), ("x",), "a tester needs at least one input to emit"),
    ((), (), ("x", "x"), "a tester needs at least one input to emit"),
    (("z",), (), ("x", "x"), "a tester needs at least one input to emit"),
    ((), ("a",), ("x",), "fault path is empty"),
    ((), ("a",), ("a",), "fault path is empty"),
    (("z", "a"), ("a",), ("x",), "fault path label 'z' not in the alphabet"),
    (("a", "z"), ("a",), ("a",), "fault path label 'z' not in the alphabet"),
    (("a",), ("a",), ("x",), "fault path must end with an output or delta"),
    (("a",), ("a", "a"), ("x",), "fault path must end with an output or delta"),
    (("a",), ("a",), ("a",), "test purpose alphabets overlap"),
    (("x",), ("a",), ("x", "x"), "test purpose alphabets overlap"),
    (("x",), ("a", "a"), ("x",), "test purpose alphabets overlap"),
    (("x",), ("a", "delta"), ("x",), "test purpose alphabets overlap"),
    (("x",), ("a", "delta"), ("x", "delta"), "test purpose alphabets overlap"),
    (("x",), ("a", "tau"), ("x", "x"), "test purpose alphabets overlap"),
    (("x",), ("tau",), ("x",), "reserved name used as a test purpose action"),
    (("x",), ("a",), ("x", "pass"), "reserved name used as a test purpose action"),
    (("fail",), ("a",), ("fail",), "reserved name used as a test purpose action"),
])
def test_path_to_test_purpose_error_order(path, inputs, outputs, message):
    """A suite's builder reports the same first error at every path, as one
    call per path does: a failed alphabet check is not remembered as passed."""
    testers = testgen._Testers(inputs, outputs)
    for build in (lambda: path_to_test_purpose(path, inputs, outputs),
                  lambda: testers.tester(path), lambda: testers.tester(path)):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            build()


def test_suite_checks_its_alphabets_once(monkeypatch, four_state, tmp_path):
    """Generating or reading a suite runs the tester constructor's checks at its
    first path only; a single ``path_to_test_purpose`` call runs them once."""
    checks, post_init = [0], testgen.TestPurpose.__post_init__

    def counted(self):
        checks[0] += 1
        post_init(self)

    monkeypatch.setattr(testgen.TestPurpose, "__post_init__", counted)
    model = generate_fault_model(four_state, m=2, limit=50)
    assert len(model.tps) == 50 and checks == [1]
    write_fault_model(model, str(tmp_path))
    assert read_fault_model(str(tmp_path)) == model and checks == [2]
    path_to_test_purpose(("a", "x"), ("a",), ("x",))
    assert checks == [3]


@pytest.mark.parametrize("inputs, outputs", [
    ([], ["x", "delta"]), (["x"], ["x", "delta"]), (["a"], ["a", "delta"]),
], ids=["no-inputs", "overlap", "overlap-2"])
def test_pathless_manifest_loads_with_any_alphabet(tmp_path, inputs, outputs):
    """Alphabets are checked when the first tester is built, so a manifest
    without paths loads whatever its alphabets are."""
    manifest = {"m": 1, "n": 1, "levels": 2, "limit": 1, "truncated": False,
                "tp_count": 0, "inputs": inputs, "outputs": outputs, "paths": []}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    model = read_fault_model(str(tmp_path))
    assert (model.tps, model.paths, model.inputs, model.outputs) == (
        (), (), tuple(inputs), tuple(outputs))


def _reference_tester(path, inputs, outputs):
    """The tester of ``path`` built edge by edge: chain edges, then each chain
    state's pass edges, then the pass/fail self-loops."""
    observed = outputs + ((DELTA,) if DELTA not in outputs else ())
    n = len(path)
    transitions = [(i, tok, i + 1 if i + 1 < n else n + 1) for i, tok in enumerate(path)]
    for i, tok in enumerate(path):
        transitions += [(i, obs, n) for obs in observed if obs != tok]
        if tok not in inputs:
            transitions.append((i, inputs[0], n))
    transitions += [(t, obs, t) for t in (n, n + 1) for obs in observed]
    states = tuple(f"t{i}" for i in range(n)) + ("pass", "fail")
    return testgen.TestPurpose(states, 0, observed, inputs, tuple(transitions), n, n + 1)


def _oracle_cases():
    """(inputs, outputs, paths) of seeded specs and of hand-made paths."""
    for seed in range(36):
        spec = ensure_quiescence(random_iolts(GenParams(
            states=1 + seed % 5, inputs=1 + seed % 4, outputs=1 + seed // 4 % 4,
            input_enabled=seed % 3 != 0, seed=seed)))
        model = generate_fault_model(spec, m=1 + seed % 3, limit=150)
        yield model.inputs, tuple(t for t in model.outputs if t != DELTA), model.paths
    yield ("a", "b"), ("x", "y"), (
        ("x",), ("delta",), ("y", "x"), ("x", "y", "x"), ("a", "delta"),
        ("b", "a", "delta"), ("x", "delta", "y", "delta"), ("a",) * 3000 + ("x",),
        ("b", "x"), ("a", "b", "y"), ("y",) * 3 + ("delta",))


def test_shared_piece_testers_match_reference():
    """Testers and texts from one builder per suite, whose pieces are shared
    across paths of different lengths, equal the edge-by-edge reference and
    the constructor's rebuild, pass the invariants, and spell ``tp_to_text``."""
    for inputs, outputs, paths in _oracle_cases():
        testers = testgen._Testers(inputs, outputs)
        for path in paths:
            tp = testers.tester(path)
            reference = _reference_tester(path, inputs, outputs)
            assert tp == reference == replace(tp)  # replace runs the constructor
            assert repr(tp) == repr(reference)
            assert tp_invariant_violations(tp) == []
            assert testers.text(path) == tp_to_text(
                tp, comments=(f"fault path: {' '.join(path)}",))


@pytest.mark.parametrize("path, message", [
    ((), "fault path is empty"),
    (("a",), "fault path must end with an output or delta"),
    (("z", "x"), "fault path label 'z' not in the alphabet"),
])
def test_write_refuses_the_paths_read_refuses(m1, tmp_path, path, message):
    """A hand-built model that ``read_fault_model`` would refuse is not written:
    write raises read's message before it touches the directory."""
    model = generate_fault_model(m1, m=2, limit=3)
    bad = replace(model, paths=(model.paths[0], path))
    target = tmp_path / "written"
    with pytest.raises(FormatError) as written:
        write_fault_model(bad, str(target))
    assert str(written.value) == f"manifest.json path 1: {message}"
    assert not target.exists()
    write_fault_model(model, str(tmp_path / "read"))
    manifest_file = tmp_path / "read" / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["paths"][1] = list(path)
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(FormatError) as read:
        read_fault_model(str(tmp_path / "read"))
    assert str(read.value) == str(written.value)


@pytest.mark.parametrize("fields, message", [
    (dict(limit=1), "manifest.json holds more paths than its limit"),
    (dict(limit=5, truncated=True),
     "manifest.json is truncated with fewer paths than its limit"),
    (dict(m=0), "manifest.json needs m, n and limit of at least 1"),
    (dict(outputs=("x",)), "manifest.json outputs lack 'delta'"),
    (dict(inputs=("a", "x")), "manifest.json path 0: test purpose alphabets overlap"),
], ids=["over-limit", "truncated-short", "m-0", "no-delta", "overlap"])
def test_write_refuses_the_models_read_refuses(m1, tmp_path, fields, message):
    """Sound paths do not make a sound suite: a model that breaks a manifest
    rule or an alphabet rule is refused with read's message, before writing."""
    target = tmp_path / "suite"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        write_fault_model(replace(generate_fault_model(m1, 2, 3), **fields), str(target))
    assert not target.exists()


def _hand_manifest(model):
    """The manifest of ``model``, built key by key as JSON spells it."""
    return {"m": model.m, "n": model.n, "levels": model.m * model.n + 1,
            "limit": model.limit, "truncated": model.truncated,
            "tp_count": len(model.paths), "inputs": list(model.inputs),
            "outputs": list(model.outputs), "paths": [list(p) for p in model.paths]}


def _broken_models(model):
    """``model`` itself, then ``model`` with one suite rule broken per case,
    each under the name of the rule it breaks.  No model breaks the
    ``tp_count`` or ``levels`` rule: write derives both values."""
    paths, inputs, outputs = model.paths, model.inputs, model.outputs
    yield "none", model
    yield "delta-output", replace(model, outputs=tuple(t for t in outputs if t != DELTA))
    yield "m-positive", replace(model, m=0)
    yield "n-positive", replace(model, n=0)
    yield "limit-positive", replace(model, limit=0)
    yield "within-limit", replace(model, limit=max(1, len(paths) - 1))
    yield "truncated-full", replace(model, limit=len(paths) + 1, truncated=True)
    yield "overlap", replace(model, inputs=inputs + (outputs[0],))
    yield "overlap", replace(model, inputs=(inputs[0], DELTA) + inputs[1:])
    yield "reserved", replace(model, inputs=inputs + ("tau",))
    yield "reserved", replace(model, outputs=("pass",) + outputs)
    for i in sorted({0, len(paths) - 1} if paths else ()):
        for bad in ((), paths[i][:-1] + (inputs[-1],), ("zz",) + paths[i]):
            yield f"path-{min(i, 1)}", replace(model, paths=paths[:i] + (bad,) + paths[i + 1:])


def _outcome(action):
    """("error", message) if ``action()`` raises FormatError, else ("ok", result)."""
    try:
        return "ok", action()
    except FormatError as exc:
        return "error", str(exc)


def test_write_and_read_refuse_the_same_models(tmp_path):
    """Oracle: on seeded random suites with one rule broken per case, writing
    the model fails exactly when reading its hand-built manifest fails, with
    the same message, and then creates no directory.  A model write accepts
    reads back with its paths, scalars and ``path_to_test_purpose`` testers."""
    refused, accepted = set(), set()
    for seed in range(12):
        spec = random_iolts(GenParams(
            states=1 + seed % 4, inputs=1 + seed % 3, outputs=seed and 1 + seed % 3,
            input_enabled=seed % 2 == 0, seed=seed))
        # a third of the limits exceed the path count, so those suites are exhaustive
        limit = (2 + seed % 7) * (21 if seed % 3 == 0 else 1)
        model = generate_fault_model(spec, m=1 + seed % 2, limit=limit)
        base = tmp_path / f"base-{seed}"
        write_fault_model(model, str(base))
        for k, (rule, broken) in enumerate(_broken_models(model)):
            target = tmp_path / f"written-{seed}-{k}"
            written = _outcome(lambda: write_fault_model(broken, str(target)))
            (base / "manifest.json").write_text(json.dumps(_hand_manifest(broken)))
            read = _outcome(lambda: read_fault_model(str(base)))
            assert written[0] == read[0], (seed, rule, written, read)
            if written[0] == "error":
                assert written == read and not target.exists()
                refused.add(rule)
                continue
            accepted.add(rule)
            loaded = read_fault_model(str(target))
            assert loaded == read[1]
            assert json.loads((target / "manifest.json").read_text()) == _hand_manifest(broken)
            assert (loaded.paths, loaded.m, loaded.n, loaded.limit, loaded.truncated,
                    loaded.inputs, loaded.outputs) == (
                broken.paths, broken.m, broken.n, broken.limit, broken.truncated,
                broken.inputs, broken.outputs)
            observed = tuple(t for t in broken.outputs if t != DELTA)
            assert loaded.tps == tuple(path_to_test_purpose(p, broken.inputs, observed)
                                       for p in broken.paths)
    assert refused == {"delta-output", "m-positive", "n-positive", "limit-positive",
                       "within-limit", "truncated-full", "overlap", "reserved",
                       "path-0", "path-1"}
    assert "none" in accepted


def test_write_and_read_report_the_same_first_of_two_faults(m1, tmp_path):
    """Oracle: on seeded suites that break one path rule and one value rule,
    writing fails exactly as reading the hand-built manifest fails: both name
    the bad path first, and write creates nothing."""
    bad = replace(generate_fault_model(m1, 2, 3), limit=1, truncated=True)
    bad = replace(bad, paths=(bad.paths[0], ("a",)))
    cases = [(bad, "manifest.json path 1: fault path must end with an output or delta")]
    for seed in range(8):
        spec = random_iolts(GenParams(states=2 + seed % 3, inputs=1 + seed % 2,
                                      outputs=1 + seed % 2, seed=seed))
        model = generate_fault_model(spec, m=1 + seed % 2, limit=4 + seed % 3)
        paths, i = model.paths, len(model.paths) - 1
        for path, message in (((), "fault path is empty"),
                              (paths[i][:-1] + (model.inputs[-1],),
                               "fault path must end with an output or delta"),
                              (("zz",) + paths[i], "fault path label 'zz' not in the alphabet")):
            broken = replace(model, paths=paths[:i] + (path,))
            for values in (dict(limit=i), dict(limit=i + 2, truncated=True), dict(m=0),
                           dict(outputs=tuple(t for t in model.outputs if t != DELTA))):
                cases.append((replace(broken, **values), f"manifest.json path {i}: {message}"))
    base = tmp_path / "base"
    write_fault_model(generate_fault_model(m1, 2, 3), str(base))
    for k, (broken, message) in enumerate(cases):
        target = tmp_path / f"written-{k}"
        written = _outcome(lambda: write_fault_model(broken, str(target)))
        (base / "manifest.json").write_text(json.dumps(_hand_manifest(broken)))
        assert written == _outcome(lambda: read_fault_model(str(base))) == ("error", message)
        assert not target.exists()


@pytest.mark.parametrize("fields, message", [
    (dict(m=True), "manifest.json needs key 'm' of type int"),
    (dict(n=2.0), "manifest.json needs key 'n' of type int"),
    (dict(limit=3.0), "manifest.json needs key 'limit' of type int"),
    (dict(truncated=1), "manifest.json needs key 'truncated' of type bool"),
    (dict(outputs=("x", 3, "delta")), "manifest.json alphabets and paths must be lists of tokens"),
    (dict(inputs=("a", 3)), "manifest.json alphabets and paths must be lists of tokens"),
], ids=["m-bool", "n-float", "limit-float", "truncated-int", "output-int", "input-int"])
def test_write_and_read_refuse_badly_typed_manifests(m1, tmp_path, fields, message):
    """Write checks the manifest it would write by read's type rules: a model
    whose fields JSON spells with the wrong type is refused with read's
    message, and no directory or file is made."""
    model = generate_fault_model(m1, 2, 3)
    broken = replace(model, **fields)
    target, existing = tmp_path / "written", tmp_path / "existing"
    existing.mkdir()
    for directory in (target, existing):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            write_fault_model(broken, str(directory))
    assert not target.exists() and not any(existing.iterdir())
    base = tmp_path / "read"
    write_fault_model(model, str(base))
    (base / "manifest.json").write_text(json.dumps(_hand_manifest(broken)))
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_fault_model(str(base))


def test_line_format_reads_back_what_it_writes():
    """Oracle: every tester of seeded suites reads back equal through
    ``tp_to_text`` and ``tp_from_text``, and every seeded model and its
    completions through ``serialize_model`` and ``parse_model``."""
    testers = 0
    for seed in range(24):
        spec = random_iolts(GenParams(
            states=1 + seed % 6, inputs=1 + seed % 3, outputs=seed % 4,
            deterministic=seed % 4 != 3, input_enabled=seed % 3 == 0, seed=seed))
        completed = ensure_quiescence(spec)
        for model in (spec, completed, angelic_input_enable(spec),
                      ensure_quiescence(angelic_input_enable(spec))):
            assert parse_model(serialize_model(model)) == model
        if completed.is_deterministic:
            for tp in generate_fault_model(spec, m=1 + seed % 2, limit=60).tps:
                assert tp_from_text(tp_to_text(tp)) == tp
                testers += 1
    assert testers > 600  # 642 at these seeds


@pytest.mark.parametrize("fields, name", [
    (dict(states=("t 0", "pass", "fail")), "t 0"),
    (dict(states=("t#0", "pass", "fail")), "t#0"),
    (dict(states=("", "pass", "fail")), ""),
    (dict(states=(0, "pass", "fail")), 0),
    (dict(outputs=("a b",)), "a b"),
    (dict(inputs=("x", "delta", "x y")), "x y"),
    (dict(outputs=(3,)), 3),
], ids=["space", "comment", "empty", "int-state", "action-space", "observed-space",
        "int-action"])
def test_test_purpose_refuses_names_the_line_format_cannot_carry(fields, name):
    """The tester of ``x`` over input a, states t0 pass fail, with one name
    replaced by one the line format would split, cut off or drop: the
    constructor refuses it with one message, before its other checks."""
    tp = path_to_test_purpose(("x",), ("a",), ("x",))
    with pytest.raises(FormatError, match=f"^{re.escape(f'invalid test purpose name {name!r}')}$"):
        replace(tp, **fields)


@pytest.mark.parametrize("inputs, outputs, message", [
    (tuple(f"a {i}" for i in range(20)), ("x",), "invalid test purpose name 'a 0'"),
    (("a 0", "a"), ("x", "y 1"), "invalid test purpose name 'y 1'"),
    (("a b", "x"), ("x",), "test purpose alphabets overlap"),
    (("a b", "tau"), ("x",), "reserved name used as a test purpose action"),
    (("a", "b c"), ("x", "y z", "pass"), "reserved name used as a test purpose action"),
], ids=["first-of-many", "observed-first", "overlap-first", "reserved-first",
        "reserved-observed-first"])
def test_tester_names_report_the_first_bad_name(inputs, outputs, message):
    """A bad name is reported after the three alphabet rules, and it is the
    first in declaration order, observed then emitted, not in set order."""
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        path_to_test_purpose(("x",), inputs, outputs)


def test_write_and_read_refuse_a_name_the_line_format_cannot_carry(m1, tmp_path):
    """A suite whose input ``a`` is renamed ``a b`` in its alphabet and paths
    keeps every path rule; write and read both refuse it at path 0."""
    model = generate_fault_model(m1, 2, 3)
    renamed = tuple(tuple("a b" if t == "a" else t for t in p) for p in model.paths)
    broken = replace(model, inputs=("a b",), paths=renamed)
    message = "manifest.json path 0: invalid test purpose name 'a b'"
    target = tmp_path / "written"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        write_fault_model(broken, str(target))
    assert not target.exists()
    base = tmp_path / "read"
    write_fault_model(model, str(base))
    (base / "manifest.json").write_text(json.dumps(_hand_manifest(broken)))
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_fault_model(str(base))


@pytest.mark.parametrize("case, message", [
    ("int-token", "manifest.json alphabets and paths must be lists of tokens"),
    ("over-long-m", "manifest.json is not readable JSON"),
], ids=["int-token", "over-long-m"])
def test_write_and_read_refuse_what_json_cannot_type_or_spell(m1, tmp_path, case, message):
    """A path token that is not a string, met by write before its path checks,
    and an ``m`` too long for JSON to spell are refused by write with read's
    message, and nothing is written."""
    model = generate_fault_model(m1, 2, 3)
    base = tmp_path / "read"
    write_fault_model(model, str(base))
    manifest = _hand_manifest(model)
    if case == "int-token":
        broken = replace(model, paths=(model.paths[0], ("a", 3), model.paths[2]))
        manifest["paths"][1] = ["a", 3]
        text = json.dumps(manifest)
    else:
        broken = replace(model, m=10**5000)
        text = json.dumps(manifest).replace('"m": 2,', '"m": 1' + "0" * 5000 + ",", 1)
    target = tmp_path / "written"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        write_fault_model(broken, str(target))
    assert not target.exists()
    (base / "manifest.json").write_text(text)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_fault_model(str(base))
