"""Command-line surface: conformance checks, suite generation/run, model tools.

Exit codes: 0 for conformance / all tests passing, 1 for detected
non-conformance or test failure, 2 for usage or input errors (an input too
large for the available memory among them), 3 for an internal error (its
traceback goes to stderr).  Human-readable output goes to stdout,
diagnostics to stderr, machine-readable verdicts to the file named by --json.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import modelgen, testgen, testrun
from .conformance import WITNESS_STRATEGIES, check_ioco, check_lang, verdict_json
from .errors import FormatError, IoltsTestError
from .fsa import compile_regex, empty_language
from .iolts import (
    Iolts,
    complete_quiescence,
    ensure_quiescence,
    parse_model,
    serialize_model,
)

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _load(path: str, *steps):
    """The text of ``path`` put through ``steps`` in turn, its parser and then
    its use; a decoding or format error on the way names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = fh.read()
        for step in steps:
            value = step(value)
        return value
    except (FormatError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _conclude(json_path: str | None, passed: bool, payload, *args) -> int:
    """Exit step of a verdict command: ``--json`` gets ``payload(*args)``; 0 if passed, else 1."""
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload(*args)) + "\n")
    return EXIT_OK if passed else EXIT_FAULT


def _emit_model(m: Iolts, path: str | None, comments: tuple[str, ...]) -> None:
    text = serialize_model(m, comments=comments)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_verdict(v, relation: str) -> None:
    if v.conforms:
        print(f"conforms ({relation})")
    else:
        print(f"does not conform ({relation})")
        for w in v.witnesses:
            print("witness: " + " ".join(w))


def _cmd_check_ioco(args) -> int:
    spec, iut = (_load(path, parse_model, ensure_quiescence) for path in (args.spec, args.iut))
    verdict = check_ioco(spec, iut, witness=args.witness)
    _print_verdict(verdict, "ioco")
    return _conclude(args.json, verdict.conforms, verdict_json, verdict, "ioco")


def _cmd_check_lang(args) -> int:
    spec, iut = (_load(path, parse_model, ensure_quiescence) for path in (args.spec, args.iut))
    alphabet = spec.observable_alphabet
    d, f = (empty_language(alphabet) if path is None
            else _load(path, lambda text: compile_regex(text, alphabet))
            for path in (args.desirable, args.forbidden))
    verdict = check_lang(spec, iut, d, f, witness=args.witness)
    _print_verdict(verdict, "lang")
    s = verdict.stats
    bound = (s.spec_states + 1) ** 2 * s.d_states * s.f_states
    print(f"suite states: {s.suite_states} (bound {bound}: "
          f"{'ok' if s.suite_states <= bound else 'EXCEEDED'})")
    return _conclude(args.json, verdict.conforms, verdict_json, verdict, "lang")


def _cmd_gen_suite(args) -> int:
    model = _load(args.spec, parse_model,
                  lambda spec: testgen.generate_fault_model(spec, args.m, args.limit))
    testgen.write_fault_model(model, args.output)
    print(f"levels: {model.levels}")
    print(f"test purposes: {len(model.paths)}")
    if model.truncated:
        print("warning: fault model truncated at the path limit; "
              "completeness not guaranteed", file=sys.stderr)
    return EXIT_OK


def _cmd_run_suite(args) -> int:
    iut = _load(args.iut, parse_model, ensure_quiescence)
    model = testgen.read_fault_model(args.suite)
    report = testrun.run_fault_model(iut, model, fail_fast=args.fail_fast)
    print(f"overall: {report.overall}")
    for r in report.results:
        if r.verdict == "fail":
            print(f"tp-{r.index:04d} fail: " + " ".join(r.witness))
    incomplete = sum(1 for r in report.results if r.incomplete)
    if incomplete:
        print(f"note: {incomplete} run(s) incomplete (tau livelock in the implementation)")
    return _conclude(args.json, report.overall == "pass", testrun.report_json, report)


def _alphabet_arg(value: str):
    """A count if ``value`` is ASCII digits, else a comma-separated token list."""
    if value.isascii() and value.isdecimal():
        return int(value)
    return [tok for tok in value.split(",") if tok]


def _cmd_gen_model(args) -> int:
    params = modelgen.GenParams(
        states=args.states,
        inputs=_alphabet_arg(args.inputs),
        outputs=_alphabet_arg(args.outputs),
        deterministic=args.deterministic,
        input_enabled=args.input_enabled,
        density=args.density,
        seed=args.seed,
    )
    model = modelgen.random_iolts(params)
    comment = (f"generator: seed={args.seed}, states={args.states}, "
               f"density={args.density}",)
    _emit_model(model, args.output, comment)
    return EXIT_OK


def _cmd_mutate(args) -> int:
    record = _load(args.model, parse_model,
                   lambda m: modelgen.mutate(m, args.rate, args.seed, grow=args.grow))
    comments = [f"generator: seed={args.seed}, rate={args.rate}, edits={len(record.edits)}"]
    for e in record.edits:
        before = " ".join(map(str, e.before)) if e.before else "-"
        after = " ".join(map(str, e.after))
        comments.append(f"edit: {e.kind} [{before}] -> [{after}]")
    _emit_model(record.model, args.output, tuple(comments))
    return EXIT_OK


def _cmd_complete(args) -> int:
    completion = (complete_quiescence if args.mode == "quiescence"
                  else modelgen.angelic_input_enable)
    result = _load(args.model, parse_model, completion)
    _emit_model(result, args.output, (f"completed: mode={args.mode}",))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioltstest",
        description="Conformance testing for input/output labeled transition systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-ioco", help="direct ioco conformance check")
    p.add_argument("--spec", required=True)
    p.add_argument("--iut", required=True)
    p.add_argument("--witness", choices=WITNESS_STRATEGIES, default="single")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(handler=_cmd_check_ioco)

    p = sub.add_parser("check-lang", help="language-based conformance check")
    p.add_argument("--spec", required=True)
    p.add_argument("--iut", required=True)
    p.add_argument("--desirable", metavar="FILE")
    p.add_argument("--forbidden", metavar="FILE")
    p.add_argument("--witness", choices=WITNESS_STRATEGIES, default="single")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(handler=_cmd_check_lang)

    p = sub.add_parser("gen-suite", help="generate a fault model of test purposes")
    p.add_argument("--spec", required=True)
    p.add_argument("-m", type=int, required=True,
                   help="state bound on implementations")
    p.add_argument("--limit", type=int, default=1000)
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.set_defaults(handler=_cmd_gen_suite)

    p = sub.add_parser("run-suite", help="run a fault model against an implementation")
    p.add_argument("--iut", required=True)
    p.add_argument("--suite", required=True, metavar="DIR")
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(handler=_cmd_run_suite)

    p = sub.add_parser("gen-model", help="generate a random model")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--inputs", required=True,
                   help="count or comma-separated token list")
    p.add_argument("--outputs", required=True,
                   help="count or comma-separated token list")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--input-enabled", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(handler=_cmd_gen_model)

    p = sub.add_parser("mutate", help="seed faults into a model")
    p.add_argument("--model", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grow", type=int, default=0)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(handler=_cmd_mutate)

    p = sub.add_parser("complete", help="quiescence-complete or input-enable a model")
    p.add_argument("--mode", choices=("quiescence", "input-enable"), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(handler=_cmd_complete)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
    try:
        return args.handler(args)
    except (IoltsTestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: the input is too large for the available memory", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a defect, not bad input: keep the traceback
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
