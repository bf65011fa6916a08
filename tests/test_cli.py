"""Exit codes, file flows, and JSON shapes of the command-line surface."""

import json

import pytest

from ioltstest import (
    build_fault_suite,
    cli,
    compile_regex,
    complete,
    ensure_quiescence,
    parse_model,
)
from ioltstest.cli import main
from conftest import FOUR_STATE_TEXT, INPUT_ONLY_TEXT, M1_TEXT, M3_TEXT


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("m1", M1_TEXT), ("m3", M3_TEXT), ("four", FOUR_STATE_TEXT)]:
        p = tmp_path / f"{name}.iolts"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_check_ioco_conforms(files, capsys):
    assert main(["check-ioco", "--spec", files["m1"], "--iut", files["m1"]]) == 0
    assert "conforms" in capsys.readouterr().out


def test_check_ioco_fault_exit_and_witness(files, capsys):
    rc = main(["check-ioco", "--spec", files["m1"], "--iut", files["m3"]])
    assert rc == 1
    out = capsys.readouterr().out
    assert "witness: x" in out


def test_check_ioco_json(files, tmp_path):
    target = tmp_path / "verdict.json"
    main(["check-ioco", "--spec", files["m1"], "--iut", files["m3"],
          "--json", str(target)])
    payload = json.loads(target.read_text())
    assert payload["relation"] == "ioco"
    assert payload["conforms"] is False
    assert payload["witnesses"] == [["x"]]


def test_check_ioco_cover_witnesses(files, capsys):
    rc = main(["check-ioco", "--spec", files["m1"], "--iut", files["m3"],
               "--witness", "cover"])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.count("witness:") >= 1


def test_missing_file_exits_2(files, capsys):
    rc = main(["check-ioco", "--spec", str(files["dir"] / "nope.iolts"),
               "--iut", files["m1"]])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, files, capsys):
    bad = tmp_path / "bad.iolts"
    bad.write_text("states: s0\ninitial: s0\ninputs: a\noutputs: a\ntransitions:\n")
    rc = main(["check-ioco", "--spec", str(bad), "--iut", files["m1"]])
    assert rc == 2
    assert "alphabets not disjoint" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["check-ioco", "--spec"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_check_lang_no_languages_conforms(files, capsys):
    rc = main(["check-lang", "--spec", files["m1"], "--iut", files["m3"]])
    assert rc == 0
    assert "suite states" in capsys.readouterr().out


def test_check_lang_desirable_detects(files, tmp_path, capsys):
    # implementation adds an unspecified a-then-x behavior after b
    iut = tmp_path / "iut.iolts"
    iut.write_text(
        "states: q0 q1 q2 q3\ninitial: q0\ninputs: a b\noutputs: x\n"
        "transitions:\nq0 a q1\nq1 x q0\nq0 b q2\nq2 a q3\nq3 x q2\n"
    )
    spec = tmp_path / "spec.iolts"
    spec.write_text(
        "states: s0 s1\ninitial: s0\ninputs: a b\noutputs: x\n"
        "transitions:\ns0 a s1\ns1 x s0\n"
    )
    regex = tmp_path / "d.regex"
    regex.write_text("( a | b ) * a x\n")
    rc = main(["check-lang", "--spec", str(spec), "--iut", str(iut),
               "--desirable", str(regex)])
    assert rc == 1
    assert "witness" in capsys.readouterr().out


def test_check_lang_finite_word_file(tmp_path, capsys):
    """A one-line word file faults exactly the models implementing it unspecified."""
    spec = tmp_path / "spec.iolts"
    spec.write_text(
        "states: s0 s1\ninitial: s0\ninputs: a b\noutputs: x\n"
        "transitions:\ns0 a s1\ns1 x s0\n"
    )
    iut = tmp_path / "iut.iolts"
    iut.write_text(
        "states: q0 q1 q2 q3\ninitial: q0\ninputs: a b\noutputs: x\n"
        "transitions:\nq0 a q1\nq1 x q0\nq0 b q2\nq2 a q3\nq3 x q2\n"
    )
    word = tmp_path / "word.regex"
    word.write_text("b a x\n")
    rc = main(["check-lang", "--spec", str(spec), "--iut", str(iut),
               "--desirable", str(word)])
    assert rc == 1
    capsys.readouterr()
    # the specification itself never exhibits the word, so it conforms
    assert main(["check-lang", "--spec", str(spec), "--iut", str(spec),
                 "--desirable", str(word)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text, literal", [("a b\nx zz\n", "b"), ("#finite\na ( x\n", "(")])
def test_check_lang_word_list_error_exits_2(files, tmp_path, capsys, text, literal):
    """A word list's first bad token, operators included, is named on one line."""
    forbidden = tmp_path / "f.words"
    forbidden.write_text(text)
    assert main(["check-lang", "--spec", files["m1"], "--iut", files["m1"],
                 "--forbidden", str(forbidden)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"regex literal {literal!r} not in alphabet" in err


def test_check_lang_json_stats_are_operand_and_suite_sizes(tmp_path, capsys):
    """--json writes the sizes of the completed D and F and of the suite; the
    stdout bound line is computed from them."""
    spec_text = ("states: s0 s1\ninitial: s0\ninputs: a b\noutputs: x\n"
                 "transitions:\ns0 a s1\ns1 x s0\n")
    files = {"spec.iolts": spec_text, "d.regex": "( a | b ) * a x\n", "f.regex": "b a x\n",
             "iut.iolts": "states: q0 q1 q2 q3\ninitial: q0\ninputs: a b\noutputs: x\n"
                          "transitions:\nq0 a q1\nq1 x q0\nq0 b q2\nq2 a q3\nq3 x q2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "verdict.json"
    rc = main(["check-lang", "--spec", str(tmp_path / "spec.iolts"),
               "--iut", str(tmp_path / "iut.iolts"), "--desirable", str(tmp_path / "d.regex"),
               "--forbidden", str(tmp_path / "f.regex"), "--json", str(out)])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[-1] == "suite states: 12 (bound 180: ok)"
    stats = json.loads(out.read_text())["stats"]
    spec = parse_model(spec_text)
    alpha = ensure_quiescence(spec).observable_alphabet
    d, f = (compile_regex(files[n], alpha) for n in ("d.regex", "f.regex"))
    assert (stats["suite_states"], stats["d_states"], stats["f_states"]) == (
        build_fault_suite(spec, d, f).n_states, complete(d).n_states, complete(f).n_states)


def test_gen_suite_writes_manifest(files, tmp_path, capsys):
    out = tmp_path / "suite"
    rc = main(["gen-suite", "--spec", files["four"], "-m", "4",
               "--limit", "40", "-o", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["levels"] == 17
    err = capsys.readouterr().err
    assert "truncated" in err  # 40 paths cannot exhaust a 17-level multigraph


def test_run_suite_exit_codes(files, tmp_path, capsys):
    out = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(out)])
    capsys.readouterr()
    assert main(["run-suite", "--iut", files["m1"], "--suite", str(out)]) == 0
    assert main(["run-suite", "--iut", files["m3"], "--suite", str(out)]) == 1
    report = tmp_path / "report.json"
    main(["run-suite", "--iut", files["m3"], "--suite", str(out),
          "--fail-fast", "--json", str(report)])
    payload = json.loads(report.read_text())
    assert payload["overall"] == "fail"
    assert payload["tps"][-1]["witness"] == ["x"]


def _swap_first_paths(manifest):
    paths = manifest["paths"]
    paths[0], paths[1] = paths[1], paths[0]


@pytest.mark.parametrize("corrupt", [
    lambda mf: mf.pop("paths"),
    lambda mf: mf.update(tp_count=str(mf["tp_count"])),
    lambda mf: mf.update(truncated=0),
    lambda mf: mf.update(paths=["x"]),
    lambda mf: mf.update(tp_count=mf["tp_count"] - 1),
    _swap_first_paths,
    lambda mf: mf["outputs"].append("y"),
    lambda mf: mf["outputs"].remove("delta"),
], ids=["missing-key", "str-count", "int-flag", "str-paths", "count-mismatch",
        "swapped-paths", "extra-output", "no-delta"])
def test_run_suite_rejects_bad_manifest(files, tmp_path, capsys, corrupt):
    out = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(out)])
    manifest_file = out / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    assert len(set(map(tuple, manifest["paths"][:2]))) == 2
    corrupt(manifest)
    manifest_file.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["run-suite", "--iut", files["m1"], "--suite", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "manifest" in err[0]  # the suite is blamed, not the implementation


@pytest.mark.parametrize("corrupt", [
    lambda mf: mf.update(m=0),
    lambda mf: mf.update(n=-1),
    lambda mf: mf.update(limit=0),
    lambda mf: mf.update(limit=1),
    lambda mf: mf.update(truncated=True),
], ids=["zero-m", "negative-n", "zero-limit", "paths-over-limit", "truncated-under-limit"])
def test_run_suite_rejects_unwritable_manifest(files, tmp_path, capsys, corrupt):
    """Well-typed manifests that ``write_fault_model`` never writes: 62 paths
    under limit 1000, so neither limit 1 nor a truncation flag fits them."""
    out = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(out)])
    manifest_file = out / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    assert (len(manifest["paths"]), manifest["limit"], manifest["truncated"]) == (62, 1000, False)
    corrupt(manifest)
    manifest_file.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["run-suite", "--iut", files["m1"], "--suite", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "manifest.json" in err[0]


@pytest.mark.parametrize("corrupt", [
    lambda mf: mf.update(inputs=[]),
    lambda mf: mf["inputs"].append("x"),
    lambda mf: mf.update(inputs=["tau"]),
], ids=["no-inputs", "overlap", "reserved"])
def test_run_suite_rejects_bad_alphabet(files, tmp_path, capsys, corrupt):
    """The testers of a manifest with paths are built, so their alphabets are
    checked."""
    out = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(out)])
    manifest_file = out / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    corrupt(manifest)
    manifest_file.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["run-suite", "--iut", files["m1"], "--suite", str(out)]) == 2
    _assert_one_error_line(capsys)


def test_run_suite_notes_incomplete_runs(files, tmp_path, capsys):
    """A tau livelock passes every tester but leaves runs incomplete."""
    out = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(out)])
    iut = tmp_path / "livelock.iolts"
    iut.write_text("states: q0\ninitial: q0\ninputs: a\noutputs: x\ntransitions:\nq0 tau q0\n")
    capsys.readouterr()
    assert main(["run-suite", "--iut", str(iut), "--suite", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "overall: pass"
    assert lines[-1].startswith("note: ") and lines[-1].endswith(
        " run(s) incomplete (tau livelock in the implementation)")


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_run_suite_rejects_edited_tester(files, tmp_path, capsys):
    """An edited completion edge still leads the chain to fail but is not the
    tester of its path, so the suite is refused instead of run as written."""
    out = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(out)])
    tp_file = out / "tp-0001.iolts"
    text = tp_file.read_text()
    assert "# fault path: a delta\n" in text and "\nt0 x pass\n" in text
    tp_file.write_text(text.replace("\nt0 x pass\n", "\nt0 x t1\n"))
    capsys.readouterr()
    assert main(["run-suite", "--iut", files["m1"], "--suite", str(out)]) == 2
    _assert_one_error_line(capsys)


def test_run_suite_rejects_deep_manifest(files, tmp_path, capsys):
    out = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(out)])
    (out / "manifest.json").write_text("[" * 100_000)
    capsys.readouterr()
    assert main(["run-suite", "--iut", files["m1"], "--suite", str(out)]) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("case", ["cut-manifest", "long-m", "non-utf8-manifest",
                                  "non-utf8-spec", "malformed-iut", "bad-literal"])
def test_bad_input_file_is_named(files, tmp_path, capsys, case):
    """A file that cannot be read or parsed gives exit 2 and one stderr line
    that names it."""
    suite = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(suite)])
    manifest = suite / "manifest.json"
    text = manifest.read_text()
    assert '"m": 2,' in text
    bad = tmp_path / "bad.txt"
    run_suite = ["run-suite", "--iut", files["m1"], "--suite", str(suite)]
    target, content, argv = {
        "cut-manifest": (manifest, b'{"m": 1', run_suite),
        "long-m": (manifest, text.replace('"m": 2,', f'"m": {"9" * 5001},').encode(),
                   run_suite),
        "non-utf8-manifest": (manifest, b'{"m": \xff}', run_suite),
        "non-utf8-spec": (bad, M1_TEXT.encode() + b"\xff\n",
                          ["check-ioco", "--spec", str(bad), "--iut", files["m1"]]),
        "malformed-iut": (bad, M1_TEXT.replace("transitions:\n", "").encode(),
                          ["check-ioco", "--spec", files["m1"], "--iut", str(bad)]),
        "bad-literal": (bad, b"a q\n", ["check-lang", "--spec", files["m1"], "--iut",
                                         files["m1"], "--forbidden", str(bad)]),
    }[case]
    target.write_bytes(content)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and target.name in err[0]
    assert "set_int_max_str_digits" not in err[0]


def test_gen_suite_rejects_input_free_spec(tmp_path, capsys):
    """Its testers would have no stimulus to emit."""
    spec = tmp_path / "spec.iolts"
    spec.write_text("states: s0\ninitial: s0\ninputs:\noutputs: x\n"
                    "transitions:\ns0 x s0\n")
    rc = main(["gen-suite", "--spec", str(spec), "-m", "1", "-o", str(tmp_path / "suite")])
    assert rc == 2
    _assert_one_error_line(capsys)


def test_gen_suite_rejects_tau_spec(tmp_path, capsys):
    spec = tmp_path / "spec.iolts"
    spec.write_text(M1_TEXT + "s1 tau s0\n")
    capsys.readouterr()
    assert main(["gen-suite", "--spec", str(spec), "-m", "2", "-o", str(tmp_path / "suite")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "requires a deterministic model" in err[0]


def test_gen_suite_on_output_free_spec_is_empty_and_exhaustive(tmp_path, capsys):
    """No output can be unexpected, so there is no fault path to enumerate."""
    spec = tmp_path / "spec.iolts"
    spec.write_text(INPUT_ONLY_TEXT)
    rc = main(["gen-suite", "--spec", str(spec), "-m", "4", "--limit", "10",
               "-o", str(tmp_path / "suite")])
    assert rc == 0
    out, err = capsys.readouterr()
    assert "test purposes: 0" in out and "truncated" not in err
    manifest = json.loads((tmp_path / "suite" / "manifest.json").read_text())
    assert manifest["tp_count"] == 0 and manifest["truncated"] is False


@pytest.mark.parametrize("corrupt", [
    lambda mf: mf.pop("levels"),
    lambda mf: mf.update(levels="9"),
    lambda mf: mf.update(levels=True),
    lambda mf: mf.update(levels=mf["m"] * mf["n"]),
    lambda mf: mf.update(levels=mf["m"] * mf["n"] + 2),
], ids=["missing", "str", "bool", "one-under", "one-over"])
def test_run_suite_checks_levels(files, tmp_path, capsys, corrupt):
    """Every key ``write_fault_model`` writes is read back: levels must be the
    int m*n + 1, so a missing, mistyped or other value exits 2 with one line."""
    out = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(out)])
    manifest_file = out / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    assert manifest["levels"] == manifest["m"] * manifest["n"] + 1
    corrupt(manifest)
    manifest_file.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["run-suite", "--iut", files["m1"], "--suite", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "manifest.json" in err[0]


def test_memory_error_exits_2_with_one_line(monkeypatch, capsys):
    """A MemoryError is an input too large for this host, not a defect: one
    line and exit 2, no traceback."""
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_gen_model", exhausted)
    rc = main(["gen-model", "--states", "1", "--inputs", "1", "--outputs", "1"])
    assert rc == cli.EXIT_USAGE == 2
    err = capsys.readouterr().err
    assert err == "error: the input is too large for the available memory\n"


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_gen_model", broken)
    rc = main(["gen-model", "--states", "1", "--inputs", "1", "--outputs", "1"])
    assert rc == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_gen_model_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.iolts", tmp_path / "b.iolts"
    args = ["gen-model", "--states", "10", "--inputs", "2", "--outputs", "10",
            "--seed", "1"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text().startswith("# generator: seed=1")


def test_gen_model_without_output_file_writes_stdout(tmp_path, capsys):
    args = ["gen-model", "--states", "4", "--inputs", "2", "--outputs", "2", "--seed", "5"]
    assert main(args + ["-o", str(tmp_path / "m.iolts")]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == (tmp_path / "m.iolts").read_text()


def test_gen_model_explicit_tokens(tmp_path):
    out = tmp_path / "m.iolts"
    rc = main(["gen-model", "--states", "3", "--inputs", "a,b", "--outputs", "x",
               "--seed", "7", "-o", str(out)])
    assert rc == 0
    assert "inputs: a b" in out.read_text()


def test_mutate_records_provenance(files, tmp_path):
    out = tmp_path / "mut.iolts"
    rc = main(["mutate", "--model", files["m1"], "--rate", "0.5", "--seed", "3",
               "-o", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "generator: seed=3, rate=0.5, edits=1" in text


def test_complete_quiescence_mode(files, tmp_path):
    out = tmp_path / "c.iolts"
    rc = main(["complete", "--mode", "quiescence", "--model", files["m1"],
               "-o", str(out)])
    assert rc == 0
    assert "delta" in out.read_text()


def test_complete_input_enable_mode(files, tmp_path):
    out = tmp_path / "c.iolts"
    rc = main(["complete", "--mode", "input-enable", "--model", files["m1"],
               "-o", str(out)])
    assert rc == 0
    assert "s1 a s1" in out.read_text()


@pytest.mark.parametrize("value, inputs", [("4", "in0 in1 in2 in3"), ("1_0", "1_0"),
                                           ("\u0663", None), ("+3", None)],
                         ids=["count", "underscore", "arabic-indic", "plus"])
def test_gen_model_counts_only_ascii_digits(tmp_path, capsys, value, inputs):
    """Only ASCII digits are a token count; any other value is a token list,
    so ``1_0`` names one input and a non-ASCII digit or a sign is a bad name."""
    out = tmp_path / "m.iolts"
    rc = main(["gen-model", "--states", "2", "--inputs", value, "--outputs", "1", "-o", str(out)])
    if inputs is None:
        assert rc == 2 and not out.exists()
        _assert_one_error_line(capsys)
    else:
        assert rc == 0 and f"\ninputs: {inputs}\n" in out.read_text()


@pytest.mark.parametrize("counts", [["--inputs", "-1", "--outputs", "1"],
                                    ["--inputs", "1", "--outputs", "-3"]])
def test_gen_model_rejects_negative_token_counts(tmp_path, capsys, counts):
    out = tmp_path / "m.txt"
    assert main(["gen-model", "--states", "2", *counts, "--no-input-enabled",
                 "-o", str(out)]) == 2
    _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("corrupt, message", [
    (lambda mf: mf["paths"].__setitem__(0, ["z"]), "fault path label 'z' not in the alphabet"),
    (lambda mf: mf["paths"].__setitem__(0, []), "fault path is empty"),
    (lambda mf: mf["paths"].__setitem__(0, ["a"]), "fault path must end with an output or delta"),
    (lambda mf: mf["inputs"].append("x"), "test purpose alphabets overlap"),
], ids=["unknown-token", "empty-path", "ends-in-input", "overlap"])
def test_run_suite_names_the_manifest_path_the_tester_builder_refuses(
        files, tmp_path, capsys, corrupt, message):
    out = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(out)])
    manifest_file = out / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    corrupt(manifest)
    manifest_file.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["run-suite", "--iut", files["m1"], "--suite", str(out)]) == 2
    assert capsys.readouterr().err == f"error: manifest.json path 0: {message}\n"


# a model with two ``a`` moves from s0, and one that declares delta without its loops
NONDETERMINISTIC_TEXT = M1_TEXT + "s0 a s0\n"
DELTA_TEXT = M1_TEXT.replace("outputs: x", "outputs: x delta")


@pytest.mark.parametrize("case, message", [
    ("gen-suite", "multigraph construction requires a deterministic model"),
    ("complete", "model already contains delta"),
    ("mutate", "mutation expects a delta-free model"),
    ("check-ioco", "model mentions delta but is not quiescence-completed"),
    ("check-lang", "model mentions delta but is not quiescence-completed"),
    ("run-suite", "model mentions delta but is not quiescence-completed"),
])
def test_a_model_files_format_error_names_the_file(files, tmp_path, capsys, case, message):
    """A model refused by the command that uses it is named, like a parse error;
    for the checks, the implementation is named, not the specification."""
    suite = tmp_path / "suite"
    main(["gen-suite", "--spec", files["m1"], "-m", "2", "-o", str(suite)])
    bad = tmp_path / "bad.iolts"
    bad.write_text(NONDETERMINISTIC_TEXT if case == "gen-suite" else DELTA_TEXT)
    argv = {
        "gen-suite": ["gen-suite", "--spec", str(bad), "-m", "2", "-o", str(tmp_path / "s")],
        "complete": ["complete", "--mode", "quiescence", "--model", str(bad)],
        "mutate": ["mutate", "--model", str(bad), "--rate", "0.5"],
        "check-ioco": ["check-ioco", "--spec", files["m1"], "--iut", str(bad)],
        "check-lang": ["check-lang", "--spec", files["m1"], "--iut", str(bad)],
        "run-suite": ["run-suite", "--iut", str(bad), "--suite", str(suite)],
    }[case]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["gen-suite", "--spec", "{m1}", "-m", "0", "-o", "{dir}/s"], "state bound m must be >= 1"),
    (["gen-suite", "--spec", "{m1}", "-m", "2", "--limit", "0", "-o", "{dir}/s"],
     "path limit must be >= 1"),
    (["mutate", "--model", "{m1}", "--rate", "2"], "rate must lie in (0, 1]"),
    (["check-ioco", "--spec", "{m1}", "--iut", "{four}"],
     "specification and implementation alphabets differ"),
    (["check-lang", "--spec", "{four}", "--iut", "{m1}"],
     "specification and implementation alphabets differ"),
])
def test_flag_and_pair_errors_name_no_file(files, capsys, argv, message):
    """A bad flag value or a mismatch between two models is no one file's fault."""
    argv = [arg.format(m1=files["m1"], four=files["four"], dir=files["dir"]) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gen_suite_refuses_a_bound_too_long_for_its_manifest(files, tmp_path, capsys):
    """``-m`` of 4,300 nines makes ``levels`` too long for JSON to spell: exit 2
    with read's one-line message naming manifest.json, and no directory."""
    target = tmp_path / "huge"
    assert main(["gen-suite", "--spec", files["m1"], "-m", "9" * 4300, "-o", str(target)]) == 2
    assert capsys.readouterr().err == "error: manifest.json is not readable JSON\n"
    assert not target.exists()
