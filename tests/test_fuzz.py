"""Fuzzed inputs to the loaders: bad input must end in FormatError or
ValueError (and OSError for a missing tester file), never in another
exception, which the CLI would report as an internal error.

Each strategy mixes raw text with valid artifacts edited line by line or key
by key, so that the checks past the first syntax error are reached too."""

import json
import os
import tempfile
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ioltstest import (  # noqa: E402
    FormatError,
    compile_regex,
    generate_fault_model,
    parse_model,
    path_to_test_purpose,
    read_fault_model,
    tp_from_text,
    tp_invariant_violations,
    tp_to_text,
    write_fault_model,
)

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
EXPECTED = (FormatError, ValueError)

NAMES = ["s0", "s1", "t0", "pass", "fail"]
LABELS = ["a", "b", "x", "y", "tau", "delta"]
# tokens that reach the section, name, regex and directive parsers
WORDS = NAMES + LABELS + ["states:", "initial:", "inputs:", "outputs:", "transitions:",
                          "%empty", "#finite", "#", "(", ")", "|", "*", "", "a-b", "é"]
lines = st.lists(st.sampled_from(WORDS) | st.text(max_size=3), max_size=6).map(" ".join)

SPEC = ("states: s0 s1\ninitial: s0\ninputs: a b\noutputs: x y\ntransitions:\n"
        "s0 a s1\ns0 b s0\ns1 x s0\ns1 a s1\n")
MODEL = generate_fault_model(parse_model(SPEC), 2, limit=3)


@st.composite
def edited(draw, text):
    """``text`` with a few lines deleted, replaced or inserted."""
    rows = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        if at < len(rows) and draw(st.booleans()):
            del rows[at]
        else:
            rows[at:at + draw(st.integers(0, 1))] = [draw(lines)]
    return "\n".join(rows)


@st.composite
def models(draw):
    """The five sections in order over a small name pool."""
    def names(pool, low, high):
        return " ".join(draw(st.lists(st.sampled_from(pool), min_size=low, max_size=high)))

    rows = draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(LABELS),
                                   st.sampled_from(NAMES)).map(" ".join), max_size=8))
    return "\n".join([f"states: {names(NAMES, 1, 4)}", f"initial: {names(NAMES, 1, 1)}",
                      f"inputs: {names(LABELS, 0, 3)}", f"outputs: {names(LABELS, 0, 3)}",
                      "transitions:", *rows])


texts = st.one_of(st.text(max_size=200), st.lists(lines, max_size=12).map("\n".join),
                  models(), models().flatmap(edited), edited(SPEC),
                  st.sampled_from(MODEL.tps).map(tp_to_text).flatmap(edited))
regexes = st.lists(st.sampled_from(["a", "b", "(", ")", "|", "*", "%empty"]),
                   max_size=12).map(" ".join) | st.recursive(
    st.sampled_from(["a", "b", "%empty"]),
    lambda r: (st.tuples(r, r).map(" ".join)
               | st.tuples(r, r).map("( {0[0]} | {0[1]} )".format)
               | r.map("( {} ) *".format)),
    max_leaves=8)
alphabets = st.just(["a", "b"]) | st.lists(st.sampled_from(WORDS) | st.text(max_size=3),
                                           max_size=5)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | lines,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(lines, kids, max_size=4),
    max_leaves=20)
manifest_keys = st.sampled_from(["m", "n", "limit", "truncated", "tp_count", "inputs",
                                 "outputs", "paths", "levels"])
# one manifest in four is replaced by arbitrary JSON
replacements = st.integers(0, 3).flatmap(lambda k: json_values if k == 0 else st.none())
# (key, None) drops the key, (key, value) sets it
manifest_edits = st.lists(st.tuples(manifest_keys, st.none() | json_values | st.lists(
    st.sampled_from(LABELS) | st.lists(st.sampled_from(LABELS), max_size=4), max_size=4)),
    max_size=3)


@FUZZ
@given(texts)
def test_parse_model_raises_only_format_errors(text):
    try:
        parse_model(text)
    except EXPECTED:
        pass


@FUZZ
@given(texts)
def test_tp_from_text_raises_only_format_errors(text):
    try:
        tp_from_text(text)
    except EXPECTED:
        pass


@FUZZ
@given(texts | regexes, alphabets)
def test_compile_regex_raises_only_format_errors(src, alphabet):
    try:
        compile_regex(src, alphabet)
    except EXPECTED:
        pass


@FUZZ
@given(replacements, manifest_edits, st.none() | texts)
def test_read_fault_model_raises_only_format_or_os_errors(replaced, edits, tester):
    """A written suite whose manifest is replaced or edited, and whose first
    tester file may be overwritten."""
    with tempfile.TemporaryDirectory() as directory:
        write_fault_model(MODEL, directory)
        path = os.path.join(directory, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        for key, value in edits:
            if value is None:
                manifest.pop(key, None)
            else:
                manifest[key] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest if replaced is None else replaced, fh)
        if tester is not None:
            with open(os.path.join(directory, "tp-0000.iolts"), "w", encoding="utf-8") as fh:
                fh.write(tester)
        try:
            read_fault_model(directory)
        except (*EXPECTED, OSError):
            pass


# names the line format carries, reserved ones, and ones it would split or cut
tester_names = st.sampled_from(NAMES + LABELS + ["a b", "t#0", "", "x\ty", "é", "s0\n"]) \
    | st.text(max_size=3)


@FUZZ
@given(st.lists(tester_names, min_size=1, max_size=3),
       st.lists(tester_names, min_size=1, max_size=3), tester_names)
def test_accepted_testers_read_back_equal(inputs, outputs, state):
    """Oracle: a tester that the public constructor accepts and that
    ``tp_invariant_violations`` passes reads back equal through ``tp_to_text``
    and ``tp_from_text``; any other tester is refused with FormatError."""
    try:
        tp = path_to_test_purpose((outputs[-1],), inputs, outputs)
        tp = replace(tp, states=(state,) + tp.states[1:])
    except FormatError:
        return
    if not tp_invariant_violations(tp):
        assert tp_from_text(tp_to_text(tp)) == tp
