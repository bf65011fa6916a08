"""One workload run in its own process; ``run.py`` starts it.

Usage: python3 perfbench/measure.py --workload NAME --seed N --seconds S
       --trace 0|1 [--smoke]

The process caps its own address space, imports the library from the
checkout's ``src``, sets the workload up, then runs its ops in a fixed cycle
until ``--seconds`` have passed.  Each op runs under a wall-clock cap; an op
that raises, hits the cap, or gives a wrong answer counts as failed and is
listed, never dropped.  It prints one JSON object on stdout.

Untraced (``--trace 0``), the ops run as the CLI would run them and their
wall times give the end-to-end metrics, scaled to a nominal host speed with
``calibrate.py``.  After the timed ops a memory pass runs the ops of a few
inputs again, each input's in a fresh process forked from the set-up state,
for the peak RSS of one such process.  Traced (``--trace 1``), each op runs
twice: once untraced, for its reference result and time, then split into its
public calls under spans (see ``tracing.py``); the two results must match, and
the difference in time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected_seed0.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3  # at least, and more until SETUP_MIN_S have passed
SETUP_MIN_S = 2.0
REF_EVERY_S = 0.1
OP_CAP_S = 30
ADDRESS_SPACE_BYTES = 2 << 30
# spans the workloads open around a composite call they split into public parts
SPLIT_COMPOSITES = ("testgen.generate_fault_model", "testgen.read_fault_model",
                    "conformance.check_lang")


def import_library():
    """Import ``ioltstest`` from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ioltstest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {src}")
    sys.path.insert(0, str(src))
    import ioltstest
    if Path(ioltstest.__file__).resolve().parent != (src / "ioltstest").resolve():
        sys.exit(f"perfbench: imported ioltstest from {ioltstest.__file__}, not {src}")
    return ioltstest


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def capped(fn, *args):
    """Run ``fn(*args)``, raising OpTimeout after OP_CAP_S seconds."""
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def set_up(wl, seed: int, repeats: int, min_s: float = 0.0):
    """Set the workload up ``repeats`` times, and more until ``min_s`` seconds
    of set-up have passed; the inputs must not change."""
    times, inputs = [], None
    while len(times) < repeats or sum(times) < min_s:
        gc.collect()
        t0 = time.perf_counter()
        fresh = wl.setup(seed)
        times.append(time.perf_counter() - t0)
        if inputs is not None and fresh != inputs:
            raise RuntimeError("set-up is not deterministic for this seed")
        inputs = fresh
    return inputs, times


def run_ops(wl, inputs, seconds: float, expected, tracer=None, instr=None):
    """Cycle through the workload's ops until ``seconds`` have passed.

    Untraced, ``calibrate.reference()`` is timed before each op, once per
    REF_EVERY_S of the previous op's time, so that the timings sample the
    host's speed about evenly over the run."""
    ops = wl.ops(inputs)
    times = {slot: {} for slot in wl.kinds}  # slot -> op key -> times
    work = dict.fromkeys(wl.kinds, 0)
    refs: list[float] = []
    plain_total = traced_total = last_dt = 0.0
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    i = 0
    while True:
        # A CLI command starts on an empty heap: drop the last op's results
        # and collect, untimed, so that no op pays for another's garbage.
        result = traced = None
        gc.collect()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (all(times.values()) or elapsed >= 2 * seconds):
            break
        op = ops[i % len(ops)]
        i += 1
        attempted += 1
        try:
            if tracer is None:  # about one reference timing per REF_EVERY_S of op time
                refs += (calibrate.timed_reference()
                         for _ in range(1 + min(int(last_dt / REF_EVERY_S), 30)))
            t0 = time.perf_counter()
            result = capped(wl.run, inputs, op)
            dt = last_dt = time.perf_counter() - t0
            if tracer is not None:
                gc.collect()
                tracer.op = op.key
                with tracer.span(f"op.{op.kind}") as root, instr.active():
                    traced = capped(wl.run_traced, inputs, op, tracer)
                tracer.op = None
                if op.slot != "aux":  # aux ops wait on the disk, not on tracing
                    plain_total += dt
                    traced_total += root[2] - root[1]
        except OpTimeout:
            failures.append(f"{op.key}: exceeded the {OP_CAP_S} s op cap")
            continue
        except Exception as exc:  # any library failure is a failed op, recorded
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        try:
            problems = wl.check(inputs, op, result)
            if expected is not None and wl.answer(op, result) != expected.get(op.key):
                problems.append("answer differs from the recorded answer")
            if tracer is not None:
                if not wl.same(result, traced):
                    problems.append("split traced op differs from the composite op")
                    tracer.add("trace.mismatches", 1)
                wl.count(op, result, tracer)
        except Exception as exc:  # a result the checks cannot even read
            problems = [f"checking raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{op.key}: " + "; ".join(problems))
            continue
        times[op.slot].setdefault(op.key, []).append(dt)
        work[op.slot] += wl.work(op, result)
    return {"times": times, "work": work, "failures": failures, "attempted": attempted,
            "refs": refs, "plain_total": plain_total, "traced_total": traced_total}


def fork_memory_probe(wl, inputs):
    """Fork, right after set-up, a process that waits for the timed ops to end.

    Then it runs the commands of ``wl.memory_ops()`` one group at a time, each
    group in a fresh child of its own, and sends back each child's peak RSS
    in MB (``None`` for a child that failed).  So every group starts from the
    set-up's heap, as a CLI command starts from an empty one, and no timed op
    runs while the probe works.  Returns the pid, the pipe that starts the
    probe and the pipe it answers on.
    """
    go_r, go_w = os.pipe()
    out_r, out_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(go_w)
            os.close(out_r)
            if os.read(go_r, 1):  # empty: the run ended without a memory pass
                groups = wl.memory_ops(inputs)
                with os.fdopen(out_w, "w") as fh:
                    json.dump([[op.key for op in g] for g in groups], fh)
                    fh.write("\n")
                    json.dump([_peak_rss_mb(wl, inputs, g) for g in groups], fh)
            code = 0
        finally:
            os._exit(code)
    os.close(go_r)
    os.close(out_w)
    return pid, go_w, out_r


def _peak_rss_mb(wl, inputs, group):
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for op in group:
                result = capped(wl.run, inputs, op)
                result = None
                gc.collect()
            code = 0
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    return usage.ru_maxrss / 1024 if os.waitstatus_to_exitcode(status) == 0 else None


def memory_pass(probe, go: bool):
    """Start the forked probe (or, with ``go`` false, dismiss it) and wait for it."""
    pid, go_w, out_r = probe
    try:
        os.write(go_w, b"1" if go else b"")
    except BrokenPipeError:  # the probe is gone; its answer below is empty
        pass
    finally:
        os.close(go_w)
    with os.fdopen(out_r) as fh:
        lines = fh.read().splitlines()
    os.waitpid(pid, 0)
    if not go:
        return []
    if len(lines) != 2:
        return [("memory pass", None)]
    return list(zip((" + ".join(k) for k in json.loads(lines[0])), json.loads(lines[1])))


def per_input(per_key: dict) -> list[float]:
    """Each input's median time: every input counts once, however many times
    a run gets round to it."""
    return [statistics.median(v) for v in per_key.values()]


def geomean(values) -> float:
    return math.exp(statistics.fmean(map(math.log, values)))


def end_to_end(wl, setup_times, out, peaks) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and a report naming them per workload.

    Times are scaled by ``calibrate.NOMINAL_S / calibrate.typical(refs)``."""
    times, work = out["times"], out["work"]
    ref = calibrate.typical(out["refs"])
    speed = calibrate.NOMINAL_S / ref
    good = [mb for _, mb in peaks if mb is not None]
    metrics = {"setup_s": (speed * statistics.median(setup_times), "s")}
    if good:
        metrics["peak_rss_mb.p50"] = (statistics.median(good), "MB")
    for slot in ("pre", "main"):
        if times[slot]:
            metrics[f"{slot}_ms.gmean"] = (1000 * speed * geomean(per_input(times[slot])), "ms")
    lines = [f"reference time: trimmed mean {1000 * ref:.4f} ms over {len(out['refs'])} calls, "
             f"nominal {1000 * calibrate.NOMINAL_S:.4f} ms; op times below are scaled by "
             f"{speed:.4f}",
             f"set-up times (s, unscaled): {len(setup_times)} set-ups, median "
             f"{statistics.median(setup_times):.4f}, min {min(setup_times):.4f}, "
             f"max {max(setup_times):.4f}",
             "peak RSS of one process per input's ops (MB): "
             + ", ".join(f"{k} {mb:.1f}" if mb is not None else f"{k} FAILED"
                         for k, mb in peaks),
             f"peak RSS of this whole run: "
             f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB"]
    lines += wl.report(times, work)
    for slot, kind in wl.kinds.items():
        per_key = times[slot]
        if not per_key:
            continue
        medians = per_input(per_key)
        v = [t for ts in per_key.values() for t in ts]
        lines.append(f"{kind}_ms: over {len(medians)} inputs (n={len(v)}) of each input's "
                     f"median, geometric mean {1000 * speed * geomean(medians):.3f} ms, "
                     f"p50 {1000 * speed * statistics.median(medians):.3f} ms; unscaled "
                     f"{1000 * geomean(medians):.3f} ms and "
                     f"{1000 * statistics.median(medians):.3f} ms")
        if len(v) >= 100:  # ten samples beyond the 90th percentile
            lines.append(f"{kind}_ms.p90 = {1000 * speed * percentile(v, 0.9):.3f} ms "
                         f"(over all n={len(v)} ops)")
    return metrics, lines


def per_layer(tracer, out) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans: self times, work and counters."""
    own = tracer.self_times()
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    calls: dict[str, int] = {}
    layer_s: dict[str, float] = {}
    root_self = root_total = 0.0
    split: dict[str, list[float]] = {}  # split composite -> [span time, own time]
    for rec, t in zip(tracer.spans, own):
        name = rec[0]
        self_s[name] = self_s.get(name, 0.0) + t
        work[name] = work.get(name, 0) + rec[5]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        layer_s[layer] = layer_s.get(layer, 0.0) + t
        if layer == "op":
            root_self += t
            root_total += rec[2] - rec[1]
        elif name in SPLIT_COMPOSITES:
            acc = split.setdefault(name, [0.0, 0.0])
            acc[0] += rec[2] - rec[1]
            acc[1] += t
    split_lines = [
        f"split {name}: span {total:.4f} s, children {total - glue:.4f} s, "
        f"not in a child {glue:.4f} s ({100 * glue / total:.2f} %)"
        for name, (total, glue) in sorted(split.items())]

    def s(name):
        return self_s.get(name, 0.0)

    def w(name):
        return work.get(name, 0)

    c = tracer.counters
    det_states = w("iolts.determinize")
    plain = out["plain_total"]
    m = {
        "iolts.parse_model_s": (s("iolts.parse_model"), "s"),
        "iolts.ensure_quiescence_s": (s("iolts.ensure_quiescence"), "s"),
        "iolts.determinize_s": (s("iolts.determinize"), "s"),
        "iolts.det_states": (det_states, "count"),
        "iolts.determinize_us_per_state": (
            1e6 * s("iolts.determinize") / det_states if det_states else 0.0, "us/state"),
        "fsa.compile_regex_s": (s("fsa.compile_regex"), "s"),
        "fsa.regex_states": (w("fsa.compile_regex"), "count"),
        "fsa.intersect_s": (s("fsa.intersect"), "s"),
        "fsa.product_states": (w("fsa.intersect"), "count"),
        "fsa.is_empty_s": (s("fsa.is_empty"), "s"),
        "fsa.shortest_witness_s": (s("fsa.shortest_witness"), "s"),
        "fsa.complete_union_s": (sum(s(f"fsa.{f}") for f in ("complete", "complement", "union")), "s"),
        "conformance.check_ioco_s": (s("conformance.check_ioco"), "s"),
        "conformance.ioco_desirable_s": (s("conformance.ioco_desirable_language"), "s"),
        "conformance.d_states": (w("conformance.ioco_desirable_language"), "count"),
        "conformance.build_fault_suite_s": (s("conformance.build_fault_suite"), "s"),
        "conformance.suite_states": (w("conformance.build_fault_suite"), "count"),
        "conformance.cover_s": (s("conformance.witnesses_transition_cover"), "s"),
        "conformance.cover_words": (w("conformance.witnesses_transition_cover"), "count"),
        "conformance.cover_tokens": (c.get("conformance.cover_tokens", 0), "count"),
        "testgen.build_multigraph_s": (s("testgen.build_multigraph"), "s"),
        "testgen.mg_nodes": (w("testgen.build_multigraph"), "count"),
        "testgen.enumerate_paths_s": (s("testgen.enumerate_fault_paths"), "s"),
        "testgen.paths": (c.get("testgen.paths", 0), "count"),
        "testgen.truncated": (c.get("testgen.truncated", 0), "count"),
        "testgen.tp_build_s": (s("testgen.path_to_test_purpose"), "s"),
        "testgen.tp_states": (w("testgen.path_to_test_purpose"), "count"),
        "testgen.write_s": (s("testgen.write_fault_model"), "s"),
        "testgen.tp_to_text_s": (s("testgen.tp_to_text"), "s"),
        "testgen.bytes_written": (c.get("testgen.bytes_written", 0), "B"),
        "testgen.read_s": (s("testgen.read_fault_model"), "s"),
        "testgen.tp_parse_s": (s("testgen.tp_from_text"), "s"),
        "testgen.tp_invariants_s": (s("testgen.tp_invariant_violations"), "s"),
        "testrun.run_s": (s("testrun.run_fault_model"), "s"),
        "testrun.tps_run": (w("testrun.run_fault_model"), "count"),
        "testrun.tps_failed": (c.get("testrun.tps_failed", 0), "count"),
        "testrun.tps_incomplete": (c.get("testrun.tps_incomplete", 0), "count"),
        "modelgen.random_iolts_s": (s("modelgen.random_iolts"), "s"),
        "modelgen.mutate_s": (s("modelgen.mutate"), "s"),
        "modelgen.submachine_s": (s("modelgen.submachine"), "s"),
        "modelgen.submachine_calls": (calls.get("modelgen.submachine", 0), "count"),
        "modelgen.submachine_fallbacks": (w("modelgen.submachine"), "count"),
        "trace.overhead_frac": ((out["traced_total"] - plain) / plain if plain else 0.0, "frac"),
        "trace.unattributed_frac": (root_self / root_total if root_total else 0.0, "frac"),
        "trace.mismatches": (c.get("trace.mismatches", 0), "count"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    lines = [f"layer self time {layer}: {t:.4f} s" for layer, t in sorted(layer_s.items())]
    lines.append(f"traced ops {out['traced_total']:.4f} s vs the same ops untraced "
                 f"{plain:.4f} s")
    return m, lines + split_lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    signal.signal(signal.SIGALRM, _on_alarm)
    package = import_library()
    import workloads
    from tracing import Instrumentation, Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.smoke, str(WORKDIR / f"run-{os.getpid()}"))
    expected = None
    t0 = time.perf_counter()
    if args.seed == DEFAULT_SEED and not args.smoke:
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)[args.workload]
    load_s = time.perf_counter() - t0

    tracer = instr = None
    if args.trace:
        tracer = Tracer()
        instr = Instrumentation(package, tracer)
        with tracer.span("setup"), instr.active():
            inputs, setup_times = set_up(wl, args.seed, 1)
    else:
        inputs, setup_times = set_up(wl, args.seed, SETUP_REPEATS, SETUP_MIN_S)
    setup_times = [t + load_s for t in setup_times]
    probe = None if tracer else fork_memory_probe(wl, inputs)
    peaks, ran = [], False
    try:
        out = run_ops(wl, inputs, args.seconds, expected, tracer, instr)
        ran = True
    finally:
        if probe is not None:
            peaks = memory_pass(probe, ran)
        wl.cleanup()
    out["attempted"] += len(peaks)
    out["failures"] += [f"memory {k}: the process running it failed"
                        for k, mb in peaks if mb is None]

    if tracer is None:
        metrics, lines = end_to_end(wl, setup_times, out, peaks)
    else:
        metrics, lines = per_layer(tracer, out)
        trace_file = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(str(trace_file))
        lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    failed = len(out["failures"])
    json.dump({
        "attempted": out["attempted"],
        "failed": failed,
        "failures": out["failures"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": lines,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
