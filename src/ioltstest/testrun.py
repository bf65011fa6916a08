"""Executing fault models against implementation models.

Both runs open with one entry step, ``_open``, which checks the implementation's
alphabets once and returns det(IUT) stepped on demand (``iolts._Stepped``):
a run steps only the subsets it reaches.  ``run_tp`` checks its tester as
``tp_from_text`` does, then searches the product of the tester's automaton and
det(IUT) with the breadth-first core and product move rule of ``fsa``.  The
product moves on a token both sides enable; a sound tester enables one
stimulus per state, which flows tester-to-implementation, and every
observation (any enabled output or quiescence), which flows back.  The
verdict is fail exactly when some product state pairs the tester's fail state
with any implementation state; the witness is the shortest such word, ties
broken by the tester's alphabet order (emitted before observed), whatever
order the implementation declares.

Implementations may be underspecified: when the tester's stimulus is not an
enabled input and no observation is possible either, that branch of the run is
abandoned and counts as pass - conformance places no obligation on unspecified
inputs.  A passing run with such a branch is flagged ``incomplete``; a failing
run never is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import AlphabetMismatchError, FormatError
from .fsa import _FLAG, _first_word, _is, _product_moves, _require
from .iolts import Iolts, _Stepped, ensure_quiescence
from .testgen import FaultModel, TestPurpose, _require_sound


@dataclass(frozen=True)
class TpResult:
    index: int
    verdict: str  # "pass" | "fail"
    witness: tuple[str, ...] | None
    incomplete: bool


@dataclass(frozen=True)
class RunReport:
    overall: str
    results: tuple[TpResult, ...]
    elapsed_ms: float


def report_json(report: RunReport) -> dict:
    tps = [{"id": r.index, "verdict": r.verdict,
            "witness": list(r.witness) if r.witness is not None else None,
            "incomplete": r.incomplete} for r in report.results]
    return {"overall": report.overall, "tps": tps, "elapsed_ms": report.elapsed_ms}


def _open(iut: Iolts, observed: tuple[str, ...], emitted: tuple[str, ...]) -> _Stepped:
    """The entry step of a run: det(IUT) stepped on demand, its alphabets
    checked as ``run_tp`` says."""
    ci = ensure_quiescence(iut)
    if set(observed) != set(ci.outputs) or set(emitted) != set(ci.inputs):
        raise AlphabetMismatchError("test purpose alphabets do not match the implementation's")
    return _Stepped(ci)


def run_tp(iut: Iolts, tp: TestPurpose) -> tuple[str, tuple[str, ...] | None, bool]:
    """Run one tester against an implementation model.

    Returns (verdict, witness, incomplete).  FormatError if the tester breaks
    an invariant of ``tp_invariant_violations``.  The implementation is
    quiescence-completed if needed; its observed alphabet must match what the
    tester listens for and emits.
    """
    _require_sound(tp)
    rows = _open(iut, tp.inputs, tp.outputs)
    terminal = (tp.pass_index, tp.fail_index)
    moves = _product_moves(tp._automaton, rows)
    stuck = False  # incomplete: some non-terminal key has no move

    def successors(key):
        nonlocal stuck
        if key[0] in terminal:
            return ()
        found = moves(key)
        stuck = stuck or not found
        return found

    word = _first_word((tp.initial, rows.start), successors, lambda key: key[0] == tp.fail_index)
    # with no fail key found, every reachable key was expanded: stuck is final
    return ("pass", None, stuck) if word is None else ("fail", word, False)


def run_fault_model(iut: Iolts, model: FaultModel, fail_fast: bool = False,
                    workers: int = 1) -> RunReport:
    """Run every tester of a fault model; overall pass means all pass.

    Each fault path is walked over det(IUT), stepped on demand, with the
    verdicts of ``run_tp`` on its tester: a trace fails with itself as witness;
    a path that leaves at a state enabling no output, delta or stimulus passes
    incomplete.  ``fail_fast`` stops at the first failing tester (remaining
    testers are omitted from the report); ``workers`` is ignored.
    """
    _require(_is(fail_fast, _FLAG), "fail_fast must be a bool")
    start = time.perf_counter()
    if model.paths and not model.inputs:  # as the tester builder refuses
        raise FormatError("a tester needs at least one input to emit")
    rows = _open(iut, model.outputs, model.inputs)
    results: list[TpResult] = []
    for i, path in enumerate(model.paths):
        q = rows.start
        for tok in path:
            row = rows[q]
            if tok not in row:
                stimulus = tok if tok in model.inputs else model.inputs[0]
                stuck = row.keys().isdisjoint((*model.outputs, stimulus))
                results.append(TpResult(i, "pass", None, stuck))
                break
            q = row[tok]
        else:
            results.append(TpResult(i, "fail", path, False))
            if fail_fast:
                break
    overall = "pass" if all(r.verdict == "pass" for r in results) else "fail"
    elapsed = (time.perf_counter() - start) * 1000.0
    return RunReport(overall, tuple(results), elapsed)
