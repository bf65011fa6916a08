"""The benchmark's three workloads: seeded inputs, operations, checks.

Every operation (op) is one command a user runs: ``gen-suite`` or
``run-suite``, ``check-ioco`` or ``check-lang``, ``check-ioco --witness
cover``.  Its inputs are model files, kept as text by the set-up, and the op
parses them as the CLI does before it calls the library.  Each workload has
two op kinds: the ``pre`` kind a user runs first and the ``main`` kind the
workload is about.

For each op a workload gives:

- ``run``: the composite calls, as the CLI makes them (timed, untraced);
- ``run_traced``: the same result from the public parts of the composite
  calls, under spans, for the per-layer figures;
- ``answer``: a small, JSON-able digest of the result, compared with the
  recorded answers on the default seed;
- ``check``: cross-oracles that hold on every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
from dataclasses import dataclass

from ioltstest import conformance, fsa, iolts, modelgen, testgen, testrun


@dataclass(frozen=True)
class Op:
    key: str   # unique within a pass, e.g. "run:2:sub"
    kind: str  # gen_suite | write_suite | run_suite | check_ioco | check_lang | cover
    slot: str  # pre | main | aux (timed and reported, no end-to-end metric)
    pair: int  # index into the set-up's inputs


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _model_digest(m) -> str:
    return _digest(m.paths, m.m, m.n, m.limit, m.truncated, m.inputs, m.outputs, *m.tps)


def _verdict_answer(result) -> dict:
    conforms, witnesses = result
    return {"conforms": conforms, "witness": list(witnesses[0]) if witnesses else None}


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name = ""
    kinds: dict[str, str] = {}  # slot -> op kind

    memory_inputs = 0  # how many inputs the memory pass runs

    def memory_ops(self, inputs) -> list[list[Op]]:
        """The ``pre`` and ``main`` ops of the first ``memory_inputs`` inputs
        that have a ``main`` op, one group per input: the memory pass runs
        each group in a process of its own.  (In ``suite``, run-suite reads
        the suite that the timed ops wrote.)"""
        groups: dict[int, list[Op]] = {}
        for op in self.ops(inputs):
            if op.slot != "aux":
                groups.setdefault(op.pair, []).append(op)
        with_main = [g for g in groups.values() if any(op.slot == "main" for op in g)]
        return with_main[:self.memory_inputs]

    def run_traced(self, inputs, op: Op, tracer):
        return self.run(inputs, op)

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def count(self, op: Op, result, tracer) -> None:
        """Add the op's work counters to a traced run."""

    @staticmethod
    def work(op: Op, result) -> int:
        return 1

    def report(self, times: dict, work: dict) -> list[str]:
        """Report lines beyond the per-kind latencies."""
        return []

    def cleanup(self) -> None:
        pass


class Suite(Workload):
    """gen-suite then run-suite on input-enabled deterministic specs.  Each
    spec gets one IUT, cycling through the spec itself, a submachine and two
    mutants.  A gen-suite op takes about 0.09 s, a run-suite op 0.5 s.

    Suites are cut at 2,000 TPs, not 10,000: at 10,000 a 25 s run timed only
    five gen-suite and two or three run-suite ops, too few to repeat.

    The CLI's gen-suite is two ops here: ``generate_fault_model`` (``pre``)
    and ``write_fault_model`` (``aux``, reported but not an end-to-end
    metric).  On a 2-core VM with an ext4 disk, writing the same 10k files
    into the checkout took from 0.4 s to 5 s, mostly system time, from one
    write to the next: far more than the generation it follows.  The
    benchmark may write nowhere but its checkout.
    """

    name = "suite"
    kinds = {"pre": "gen_suite", "aux": "write_suite", "main": "run_suite"}
    memory_inputs = 2
    IUT_KINDS = ("spec", "sub", "mut", "mut")

    def __init__(self, smoke: bool, workdir: str):
        self.specs = 4 if smoke else 12
        self.m = 15
        self.limit = 200 if smoke else 2_000
        self.workdir = workdir
        self.generated: dict[int, object] = {}  # spec index -> model until written
        self.written: dict[int, str] = {}  # spec index -> digest of the written model
        self._oracle: dict[int, tuple] = {}

    def setup(self, seed: int) -> list:
        pairs = []
        for j in range(self.specs):
            s = 99 + seed * self.specs + j
            spec = modelgen.random_iolts(modelgen.GenParams(
                15, ("a", "b"), ("x", "y"), deterministic=True,
                input_enabled=True, density=0.5, seed=s))
            kind = self._iut_kind(j)
            if kind == "spec":
                iut = spec
            elif kind == "sub":
                iut = modelgen.submachine(spec, 0.7, s)
            else:
                iut = modelgen.mutate(spec, 0.02, s).model
            pairs.append((iolts.serialize_model(spec), iolts.serialize_model(iut)))
        return pairs

    def _iut_kind(self, j: int) -> str:
        return self.IUT_KINDS[j % len(self.IUT_KINDS)]

    def ops(self, pairs) -> list[Op]:
        out = []
        for j in range(len(pairs)):
            out += [Op(f"gen:{j}", "gen_suite", "pre", j),
                    Op(f"write:{j}", "write_suite", "aux", j),
                    Op(f"run:{j}:{self._iut_kind(j)}", "run_suite", "main", j)]
        return out

    def _dir(self, j: int) -> str:
        return os.path.join(self.workdir, f"suite-{j}")

    def run(self, pairs, op: Op):
        if op.kind == "gen_suite":
            spec = iolts.parse_model(pairs[op.pair][0])
            return testgen.generate_fault_model(spec, self.m, self.limit)
        if op.kind == "write_suite":
            testgen.write_fault_model(self.generated[op.pair], self._dir(op.pair))
            return self._dir(op.pair)
        iut = iolts.parse_model(pairs[op.pair][1])
        model = testgen.read_fault_model(self._dir(op.pair))
        return model, testrun.run_fault_model(iut, model, workers=1)

    def run_traced(self, pairs, op: Op, tracer):
        if op.kind == "gen_suite":
            spec = iolts.parse_model(pairs[op.pair][0])
            with tracer.span("testgen.generate_fault_model"):
                cs = iolts.ensure_quiescence(spec)
                graph = testgen.build_multigraph(cs, self.m)
                # one path past the limit tells whether the model is truncated
                paths = testgen.enumerate_fault_paths(graph, self.limit + 1)
                truncated = len(paths) > self.limit
                del paths[self.limit:]
                observed = tuple(t for t in cs.outputs if t != iolts.DELTA)
                tps = tuple(testgen.path_to_test_purpose(p, cs.inputs, observed)
                            for p in paths)
                return testgen.FaultModel(tps, tuple(paths), self.m, graph.n,
                                          self.limit, truncated, cs.inputs, cs.outputs)
        if op.kind == "write_suite":
            return self.run(pairs, op)
        iut = iolts.parse_model(pairs[op.pair][1])
        directory = self._dir(op.pair)
        with tracer.span("testgen.read_fault_model"):
            with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
            tps = []
            for i in range(manifest["tp_count"]):
                with open(os.path.join(directory, f"tp-{i:04d}.iolts"), encoding="utf-8") as fh:
                    tps.append(testgen.tp_from_text(fh.read()))
            model = testgen.FaultModel(
                tuple(tps), tuple(tuple(p) for p in manifest["paths"]), manifest["m"],
                manifest["n"], manifest["limit"], manifest["truncated"],
                tuple(manifest["inputs"]), tuple(manifest["outputs"]))
        return model, testrun.run_fault_model(iut, model, workers=1)

    @staticmethod
    def same(a, b) -> bool:
        if isinstance(a, tuple):
            return a[0] == b[0] and a[1].overall == b[1].overall and a[1].results == b[1].results
        return a == b

    def count(self, op: Op, result, tracer) -> None:
        if op.kind == "gen_suite":
            tracer.add("testgen.paths", len(result.paths))
            tracer.add("testgen.truncated", int(result.truncated))
            return
        if op.kind == "write_suite":
            with os.scandir(result) as it:
                tracer.add("testgen.bytes_written", sum(e.stat().st_size for e in it))
            return
        report = result[1]
        tracer.add("testrun.tps_failed", sum(r.verdict == "fail" for r in report.results))
        tracer.add("testrun.tps_incomplete", sum(r.incomplete for r in report.results))

    @staticmethod
    def work(op: Op, result) -> int:
        """TPs generated, or TP verdicts produced."""
        if op.kind == "gen_suite":
            return len(result.tps)
        return 0 if op.kind == "write_suite" else len(result[1].results)

    @staticmethod
    def answer(op: Op, result) -> dict:
        if op.kind == "gen_suite":
            return {"tps": len(result.tps), "truncated": result.truncated,
                    "longest": max(map(len, result.paths), default=0),
                    "digest": _digest(result.paths, *result.tps)}
        if op.kind == "write_suite":
            with os.scandir(result) as it:
                sizes = [e.stat().st_size for e in it]
            return {"files": len(sizes), "bytes": sum(sizes)}
        report = result[1]
        failed = [(r.index, r.witness) for r in report.results if r.verdict == "fail"]
        return {"overall": report.overall, "failed": len(failed),
                "incomplete": sum(r.incomplete for r in report.results),
                "digest": _digest(failed)}

    def check(self, pairs, op: Op, result) -> list[str]:
        if op.kind == "gen_suite":
            self.generated = {op.pair: result}
            return [] if len(result.tps) == len(result.paths) else ["TP count differs from path count"]
        if op.kind == "write_suite":
            # keep a digest, not the model, so the next op starts on an empty heap
            self.written[op.pair] = _model_digest(self.generated.pop(op.pair))
            return []
        model, report = result
        problems = []
        if self.written.get(op.pair) != _model_digest(model):
            problems.append("read-back model differs from the generated one")
        det_iut, ioco = self._oracles(pairs, op.pair)
        for r in report.results:
            if r.verdict == "fail" and (r.witness != model.paths[r.index]
                                        or not det_iut.accepts(r.witness)):
                problems.append(f"TP {r.index}: witness is not its path or not an IUT trace")
                break
        if report.overall == "fail" and ioco.conforms:
            problems.append("run-suite fails an IUT that check_ioco accepts")
        return problems

    def report(self, times: dict, work: dict) -> list[str]:
        lines = [f"suites written under {self.workdir}, inside the checkout"]
        if all(times.values()):
            # slot -> every op time of the slot, unscaled
            flat = {slot: [t for ts in per_key.values() for t in ts]
                    for slot, per_key in times.items()}
            gen_write = statistics.mean(flat["pre"]) + statistics.mean(flat["aux"])
            lines.append(f"gen_suite_tp_per_s = {work['pre'] / len(flat['pre']) / gen_write:.1f}"
                         " TP/s (mean TPs per suite / mean generate + write time, unscaled)")
            lines.append(f"run_suite_tp_per_s = {work['main'] / sum(flat['main']):.1f} TP/s "
                         f"({work['main']} TP verdicts over {len(flat['main'])} ops, unscaled)")
        return lines

    def _oracles(self, pairs, j: int):
        if j not in self._oracle:
            spec, iut = (iolts.parse_model(t) for t in pairs[j])
            self._oracle[j] = (iolts.determinize(iolts.ensure_quiescence(iut)),
                               conformance.check_ioco(spec, iut))
        return self._oracle[j]

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def is_trace(m, word) -> bool:
    """Whether ``word`` is an observable trace of the quiescence-completed
    ``m``: the set of states reached, with tau moves, stays non-empty.  It
    walks the one word, where ``determinize`` would build every subset."""
    current = {m.initial}
    for tok in (None, *word):
        if tok is not None:
            current = {t for s in current for label, t in m.transitions_from(s)
                       if label == tok}
        stack = list(current)
        while stack:
            for label, t in m.transitions_from(stack.pop()):
                if label == iolts.TAU and t not in current:
                    current.add(t)
                    stack.append(t)
        if not current:
            return False
    return True


def finite_language(spec_q, seed: int, words: int = 64) -> str:
    """A seeded ``#finite`` source of short words that are not traces of the
    quiescence-completed specification ``spec_q``, so that with
    D = ioco_desirable_language(spec) the language check must agree with
    check_ioco."""
    rng = random.Random(seed)
    alphabet = spec_q.observable_alphabet
    lines = ["#finite"]
    while len(lines) <= words:
        word = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        if not is_trace(spec_q, word):
            lines.append(" ".join(word))
    return "\n".join(lines) + "\n"


class Check(Workload):
    """check-ioco and check-lang on small nondeterministic specs; IUTs
    alternate between a submachine (conforming) and a 2 % mutant.  The
    forbidden language F holds no spec trace, so both checks must agree."""

    name = "check"
    kinds = {"pre": "check_ioco", "main": "check_lang"}
    memory_inputs = 16

    def __init__(self, smoke: bool, workdir: str):
        self.pairs = 4 if smoke else 100
        self.states = 6 if smoke else 16
        self._ioco: dict[int, bool] = {}

    def setup(self, seed: int) -> list:
        pairs = []
        for i in range(self.pairs):
            s = seed * self.pairs + i
            spec = modelgen.random_iolts(modelgen.GenParams(
                self.states, 4, 4, deterministic=False, input_enabled=False,
                density=0.5, seed=s))
            iut = (modelgen.submachine(spec, 0.7, s) if i % 2 == 0
                   else modelgen.mutate(spec, 0.02, s).model)
            pairs.append((iolts.serialize_model(spec), iolts.serialize_model(iut),
                          finite_language(iolts.ensure_quiescence(spec), s)))
        return pairs

    def ops(self, pairs) -> list[Op]:
        out = []
        for i in range(len(pairs)):
            out += [Op(f"ioco:{i}", "check_ioco", "pre", i),
                    Op(f"lang:{i}", "check_lang", "main", i)]
        return out

    @staticmethod
    def _languages(spec, f_text):
        alphabet = iolts.ensure_quiescence(spec).observable_alphabet
        return (conformance.ioco_desirable_language(spec),
                fsa.compile_regex(f_text, alphabet))

    def run(self, pairs, op: Op):
        spec_text, iut_text, f_text = pairs[op.pair]
        spec, iut = iolts.parse_model(spec_text), iolts.parse_model(iut_text)
        if op.kind == "check_ioco":
            v = conformance.check_ioco(spec, iut)
        else:
            d, f = self._languages(spec, f_text)
            v = conformance.check_lang(spec, iut, d, f)
        return v.conforms, v.witnesses

    def run_traced(self, pairs, op: Op, tracer):
        if op.kind == "check_ioco":
            return self.run(pairs, op)
        spec_text, iut_text, f_text = pairs[op.pair]
        spec, iut = iolts.parse_model(spec_text), iolts.parse_model(iut_text)
        d, f = self._languages(spec, f_text)
        with tracer.span("conformance.check_lang"):
            det_iut = iolts.determinize(iolts.ensure_quiescence(iut))
            suite = conformance.build_fault_suite(spec, d, f)
            product = fsa.intersect(det_iut, suite)
            if fsa.is_empty(product):
                return True, ()
            return False, (fsa.shortest_witness(product),)

    @staticmethod
    def answer(op, result) -> dict:
        return _verdict_answer(result)

    def check(self, pairs, op: Op, result) -> list[str]:
        conforms, witnesses = result
        if conforms == bool(witnesses):
            return ["verdict and witnesses disagree"]
        if op.kind == "check_ioco":
            self._ioco[op.pair] = conforms
            return []
        if op.pair not in self._ioco:
            self._ioco[op.pair] = self.run(pairs, Op("", "check_ioco", "pre", op.pair))[0]
        if conforms != self._ioco[op.pair]:
            return ["check_lang and check_ioco disagree though F holds no spec trace"]
        return []


class Cover(Workload):
    """check-ioco with single and cover witnesses on larger deterministic,
    not input-enabled specs against 1 % mutants."""

    name = "cover"
    kinds = {"pre": "check_ioco", "main": "cover"}
    memory_inputs = 4

    def __init__(self, smoke: bool, workdir: str):
        self.pairs = 2 if smoke else 48
        self.states = 20 if smoke else 100
        self._single: dict[int, tuple] = {}

    def setup(self, seed: int) -> list:
        pairs = []
        for i in range(self.pairs):
            s = seed * self.pairs + i
            spec = modelgen.random_iolts(modelgen.GenParams(
                self.states, 4, 4, deterministic=True, input_enabled=False,
                density=0.5, seed=s))
            iut = modelgen.mutate(spec, 0.01, s).model
            pairs.append((iolts.serialize_model(spec), iolts.serialize_model(iut)))
        return pairs

    def ops(self, pairs) -> list[Op]:
        out = []
        for i in range(len(pairs)):
            out += [Op(f"single:{i}", "check_ioco", "pre", i),
                    Op(f"cover:{i}", "cover", "main", i)]
        return out

    def run(self, pairs, op: Op):
        spec, iut = (iolts.parse_model(t) for t in pairs[op.pair])
        witness = "cover" if op.kind == "cover" else "single"
        v = conformance.check_ioco(spec, iut, witness=witness)
        return v.conforms, v.witnesses

    def count(self, op, result, tracer) -> None:
        if op.kind == "cover":
            tracer.add("conformance.cover_tokens", sum(map(len, result[1])))

    @staticmethod
    def work(op, result) -> int:
        return len(result[1]) if op.kind == "cover" else 1

    @staticmethod
    def answer(op, result) -> dict:
        if op.kind == "check_ioco":
            return _verdict_answer(result)
        conforms, witnesses = result
        return {"conforms": conforms, "words": len(witnesses),
                "tokens": sum(map(len, witnesses)), "digest": _digest(witnesses)}

    def check(self, pairs, op: Op, result) -> list[str]:
        conforms, witnesses = result
        if conforms == bool(witnesses):
            return ["verdict and witnesses disagree"]
        if op.kind == "check_ioco":
            self._single[op.pair] = result
            return []
        if op.pair not in self._single:
            self._single[op.pair] = self.run(pairs, Op("", "check_ioco", "pre", op.pair))
        single_conforms, single = self._single[op.pair]
        if conforms != single_conforms:
            return ["cover and single witness verdicts differ"]
        if not conforms and min(map(len, witnesses)) != len(single[0]):
            return ["shortest cover word is not as long as the single witness"]
        return []


WORKLOADS = {w.name: w for w in (Suite, Check, Cover)}
