"""Every CI check but pytest, in CI's order: ``python ci/checks.py`` (POSIX, for
``resource``). Each check runs in its own temporary directory, even after one fails;
prints ``PASS <check>`` or ``FAIL <check>`` and its traceback; exits 1 if any failed."""

import difflib
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP = 1_000_000 * 1024  # `ulimit -v 1000000`: 1,000,000 KiB of address space


def run(argv, code=0, timeout=None, capped=False, env=None):
    """Run ``argv`` from the checkout root; fail unless it exits with ``code``."""
    cap = (lambda: resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))) if capped else None
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=timeout,
                          preexec_fn=cap)
    if done.returncode != code:
        raise AssertionError(f"exit {done.returncode}, not {code}: {str(argv)[:300]}\n"
                             + done.stderr.decode(errors="replace"))
    return done


def py(*args, **kw):
    """Run Python with ``PYTHONPATH=src``, as CI runs the CLI and ``python -c``."""
    return run([sys.executable, *args], env={**os.environ, "PYTHONPATH": "src"}, **kw)


def cli(out, cmd, **kw):
    """Run ``python -m ioltstest`` on the words of ``cmd``, ``{out}`` filled in."""
    return py("-m", "ioltstest", *(word.format(out=out) for word in cmd.split()), **kw)


def pin(what, got, want):
    print(f"  {what}: {got}")
    if got != want:
        raise AssertionError(f"{what}: {got!r}, not {want!r}")


def pin_sha(out, *pins):
    """Pin the sha256 of the files each glob in ``out`` names, joined in name order."""
    for pattern, want in pins:
        data = b"".join(path.read_bytes() for path in sorted(out.glob(pattern)))
        pin(pattern, hashlib.sha256(data).hexdigest(), want)


def run_suite(out, code, **limits):
    """Counts and first failing witness of run-suite, which must exit ``code``."""
    cli(out, "run-suite --iut {out}/iut.txt --suite {out}/suite --json {out}/run.json",
        code=code, **limits)
    tps = json.loads((out / "run.json").read_text())["tps"]
    fails = [" ".join(t["witness"]) for t in tps if t["verdict"] == "fail"]
    return len(tps), len(fails), sum(t["incomplete"] for t in tps), next(iter(fails), None)


def demos(out):
    # each demo must exit 0 with stdout exactly demos/expected/<demo>.txt
    for demo in sorted((ROOT / "demos").glob("*.py")):
        got = run([sys.executable, demo]).stdout.decode("utf-8").splitlines(True)
        want = (demo.parent / "expected" / f"{demo.stem}.txt").read_text("utf-8").splitlines(True)
        if got != want:
            raise AssertionError("".join(difflib.unified_diff(want, got, "expected", demo.name)))


def recorded_answers(out):
    # each workload's seed-0 answers must match perfbench/expected_seed0.json,
    # untraced and traced, and each traced op split into its layers must
    # give the composite op's result (trace.mismatches 0)
    for w in ("suite", "check", "cover"):
        for trace in ("0", "1"):
            got = json.loads(run([sys.executable, "perfbench/run.py", "--workload", w, "--seed",
                                  "0", "--seconds", "3", "--trace", trace]).stdout.splitlines()[-1])
            pin(f"{w} trace {trace}: correct", got["correct"], True)
        pin(f"{w} traced: mismatches", got["metrics"]["trace.mismatches"]["value"], 0)


def cover_at_scale(out):
    # the transition covers of a 200- and a 400-state spec against their 1 %
    # mutants must each fit a 1 GB address-space cap and exit 1 (fault
    # found) with the recorded witness words: 119,648 and 427,599 of them,
    # pinned by the sha256 of json.dumps of the witness list
    for states, want in (
            (200, (119648, "b4d8db946cd9efd3baae1749d8a140cc29572c030a36a04a9375ea759b3bd910")),
            (400, (427599, "7bb9295b32434ed6b3797469fc690676f15db66199542c10a5a73cbcb0ec7c83"))):
        cli(out, f"gen-model --states {states} --inputs 4 --outputs 4 --no-input-enabled "
                 "--density 0.5 --seed 7 -o {out}/spec.txt")
        cli(out, "mutate --model {out}/spec.txt --rate 0.01 --seed 7 -o {out}/iut.txt")
        cli(out, "check-ioco --spec {out}/spec.txt --iut {out}/iut.txt --witness cover "
                 "--json {out}/cover.json", code=1, capped=True)
        words = json.loads((out / "cover.json").read_text())["witnesses"]
        pin(f"{states}-state cover",
            (len(words), hashlib.sha256(json.dumps(words).encode()).hexdigest()), want)


def determinize_at_scale(out):
    # a 40-state nondeterministic spec and its 2 % mutant determinize whole
    # to 13,889 and 14,677 states within a 1 GB address-space cap and 30 s;
    # within the same limits the ioco check, which determinizes on demand,
    # must exit 1 (fault found) with the recorded witness after stepping
    # 332 and 340 of those subsets
    cli(out, "gen-model --states 40 --inputs 4 --outputs 4 --no-deterministic "
             "--no-input-enabled --density 0.5 --seed 7 -o {out}/spec.txt")
    cli(out, "mutate --model {out}/spec.txt --rate 0.02 --seed 7 -o {out}/iut.txt")
    got = py("-c", "import sys\n"
             "from ioltstest import determinize, ensure_quiescence, parse_model\n"
             "print([determinize(ensure_quiescence(parse_model(open(path).read()))).n_states"
             " for path in sys.argv[1:]])", out / "spec.txt", out / "iut.txt",
             capped=True, timeout=30).stdout
    pin("det states", tuple(json.loads(got)), (13889, 14677))
    cli(out, "check-ioco --spec {out}/spec.txt --iut {out}/iut.txt --json {out}/ioco.json",
        code=1, capped=True, timeout=30)
    v = json.loads((out / "ioco.json").read_text())
    pin("stepped subsets, witnesses", (v["stats"]["spec_states"], v["stats"]["iut_states"],
        v["witnesses"]), (332, 340, [["in3", "out0", "in0", "in2", "out0"]]))


def generators_at_scale(out):
    # an 8,000-state model, its quiescence completion (313 delta loops), its
    # input-enabled completion, its 1 % and 100 % mutants and a 1 % mutant
    # grown by 2,000 states must each be written within 30 s, byte for byte
    # as recorded (generation is bit-reproducible)
    for cmd in ("gen-model --states 8000 --inputs 4 --outputs 4 --no-input-enabled "
                "--density 0.5 --seed 7 -o {out}/spec.txt",
                "mutate --model {out}/spec.txt --rate 0.01 --seed 7 -o {out}/iut.txt",
                "mutate --model {out}/spec.txt --rate 1.0 --seed 7 -o {out}/iut_all.txt",
                "mutate --model {out}/spec.txt --rate 0.01 --seed 7 --grow 2000 "
                "-o {out}/iut_grown.txt",
                "complete --mode quiescence --model {out}/spec.txt -o {out}/spec_q.txt",
                "complete --mode input-enable --model {out}/spec.txt -o {out}/spec_ie.txt"):
        cli(out, cmd, timeout=30)
    pin_sha(out, ("spec.txt", "2ca60b3f1060bf9e878b39d294c013aeada641233b59d3716d1f7204c4ea7706"),
            ("iut.txt", "120b9c8751e671fca398184be336ac1f1178be7d71b053f5051e1e752432fd2e"),
            ("iut_all.txt", "cd570ad551b903724d505e95cca96a9c2a49ef321bb768fd4f4ed70f294002ae"),
            ("iut_grown.txt", "04afbef76124658b504cbcb6e52b3379654a07f834d65d306a83bb2ff6a84c7d"),
            ("spec_q.txt", "5e64e06833825aa1688939cc375506b92c38b58fa86e55a457dac1fb8b14ac41"),
            ("spec_ie.txt", "90ff5070a862ac21e3a90ff21d1bf6f54a12188f390c4e395d7dd34cf18383b1"))


def suite_at_scale(out):
    # a 10,000-tester suite for a 15-state spec at m=15 must be written as
    # recorded, manifest and tester files, and, run against its 2 % mutant,
    # exit 1 (fault found) with 137 failing testers; reading it back and
    # writing it to a new directory must give the same bytes; regenerating
    # 2,000 testers into the same directory must leave only those and the
    # manifest, 31 of them failing.
    # Each command runs under a 1 GB address-space cap and 60 s
    limits = {"capped": True, "timeout": 60}
    cli(out, "gen-model --states 15 --inputs a,b --outputs x,y --seed 99 -o {out}/spec.txt",
        **limits)
    cli(out, "mutate --model {out}/spec.txt --rate 0.02 --seed 99 -o {out}/iut.txt", **limits)
    cli(out, "gen-suite --spec {out}/spec.txt -m 15 --limit 10000 -o {out}/suite", **limits)
    pin_sha(out, ("spec.txt", "6fde9e70c571f545c73da4db5e65036a090a1e9a42ad6d9a8fcec5d208936683"),
            ("iut.txt", "7fe3b5b9242f11ab25e4d25552aeff859f355770de8213707ccbde3b36044cb5"))
    pin("results, failing, incomplete", run_suite(out, 1, **limits)[:3], (10000, 137, 0))
    py("-c", "import sys\nfrom ioltstest import read_fault_model, write_fault_model\n"
       "write_fault_model(read_fault_model(sys.argv[1]), sys.argv[2])",
       out / "suite", out / "again", **limits)
    for suite in ("suite", "again"):  # run-suite only reads the suite
        pin_sha(out, (f"{suite}/manifest.json",
                      "552cd7d34c78c6021640f90e537b76d2f663b073b475c9ffa3353fb5c0365a67"),
                (f"{suite}/tp-*.iolts",
                 "7cf1c4210902dfbc84c9e577a852fac3e17e9e1be81a7fa8256681eff636a20e"))
    cli(out, "gen-suite --spec {out}/spec.txt -m 15 --limit 2000 -o {out}/suite", **limits)
    pin("entries", sum(not p.name.startswith(".") for p in (out / "suite").iterdir()), 2001)
    pin("results, failing, incomplete", run_suite(out, 1, **limits)[:3], (2000, 31, 0))


def runs_at_scale(out):
    # a 2,000-tester suite at m=20 for a one-state spec looping on x and y,
    # run against an IUT that loops on x and y at q0, moves on x to q1 and
    # then climbs a chain q1 ... q(k+1) on both x and y: its det model has
    # some 2^k subsets, but a run steps only those its testers reach.
    # Within a 1 GB address-space cap and 5 s each, at k=20 run-suite must
    # exit 0 with 2,000 results, none failing or incomplete; at k=6 it
    # must exit 1 with 960 failing, none incomplete, and the first failing
    # witness x x x x x x x delta
    head = "initial: {}\ninputs: a\noutputs: x y\ntransitions:\n{} x {}\n{} y {}\n"
    (out / "spec.txt").write_text("states: s0\n" + head.format(*["s0"] * 5))
    cli(out, "gen-suite --spec {out}/spec.txt -m 20 --limit 2000 -o {out}/suite",
        capped=True, timeout=5)
    for k, code, failing, first in ((20, 0, 0, None), (6, 1, 960, "x x x x x x x delta")):
        (out / "iut.txt").write_text(
            "states: " + " ".join(f"q{i}" for i in range(k + 2)) + "\n"
            + head.format(*["q0"] * 5) + "q0 x q1\n"
            + "".join(f"q{i} x q{i + 1}\nq{i} y q{i + 1}\n" for i in range(1, k + 1)))
        pin(f"k={k}: results, failing, incomplete, first failing witness",
            run_suite(out, code, capped=True, timeout=5), (2000, failing, 0, first))


def word_lists_at_scale(out):
    # a 20,000-word #finite F compiles to its minimal 5,848-state automaton;
    # within a 1 GB address-space cap and 60 s the language check must exit
    # 1 (fault found) and write the recorded verdict (6,526 suite states;
    # the witness search steps 1 of det(IUT)'s 15 subsets)
    for cmd in ("gen-model --states 15 --inputs a,b --outputs x,y --seed 99 -o {out}/spec.txt",
                "mutate --model {out}/spec.txt --rate 0.02 --seed 99 -o {out}/iut.txt"):
        cli(out, cmd, capped=True, timeout=60)
    rng = random.Random(17)
    (out / "f.words").write_text("#finite\n" + "".join(
        " ".join(rng.choice(["a", "b", "x", "y", "delta"]) for _ in range(rng.randint(1, 10)))
        + "\n" for _ in range(20000)))
    cli(out, "check-lang --spec {out}/spec.txt --iut {out}/iut.txt --forbidden {out}/f.words "
             "--json {out}/lang.json", code=1, capped=True, timeout=60)
    pin_sha(out, ("f.words", "461bd81a455b22abf559b94c70815100c3fb82400b62686d23f9db29dd6386f6"),
            ("lang.json", "a59983619e13d726af54bfcb5493b6c7cb98bd1f222d1d945883a6b6d2dbbcc7"))


def bad_inputs(out):
    # a cut-off manifest, a non-UTF-8 spec, a manifest whose m has 5,001
    # digits, a nondeterministic spec given to gen-suite, a manifest whose
    # first path holds a token outside its alphabets, a manifest whose
    # second path ends in an input and whose tp_count is one too many (the
    # path must be named, as write names it), a manifest whose
    # truncated is the number 1 and gen-suite with -m of 4,300 nines (its
    # manifest's levels too long for JSON to spell) must each exit 2 with
    # one stderr line that names the file and no traceback; the last must
    # not create its output directory
    def rejects(name, cmd):  # cmd must exit 2 with one stderr line naming `name`
        err = cli(out, cmd, code=2).stderr.decode(errors="replace")
        pin(err.rstrip("\n"), (err.count("\n"), name in err, "Traceback" in err), (1, True, False))

    def edited(**keys):  # the good manifest with `keys` replaced
        return json.dumps({**doc, **keys}) + "\n"

    cli(out, "gen-model --states 3 --inputs a --outputs x --seed 1 -o {out}/spec.txt")
    cli(out, "gen-suite --spec {out}/spec.txt -m 2 -o {out}/suite")
    good = (out / "suite" / "manifest.json").read_text()
    pin('"m": 2, in manifest.json', '"m": 2,' in good, True)
    doc = json.loads(good)
    for name, text in (
            ("manifest.json", '{"m": 1'),
            ("manifest.json", good.replace('"m": 2,', '"m": ' + "9" * 5001 + ",", 1)),
            ("manifest.json path 0", edited(paths=[["zz"], *doc["paths"][1:]])),
            ("manifest.json path 1", edited(paths=[doc["paths"][0], ["a"], *doc["paths"][2:]],
                                            tp_count=doc["tp_count"] + 1)),
            ("manifest.json", edited(truncated=1))):
        (out / "suite" / "manifest.json").write_text(text)
        rejects(name, "run-suite --iut {out}/spec.txt --suite {out}/suite")
    (out / "bad_spec.txt").write_bytes((out / "spec.txt").read_bytes() + b"\xff\n")
    rejects("bad_spec.txt", "check-ioco --spec {out}/bad_spec.txt --iut {out}/spec.txt")
    (out / "nondet_spec.txt").write_text("states: s0 s1\ninitial: s0\ninputs: a\noutputs: x\n"
                                         "transitions:\ns0 a s0\ns0 a s1\ns1 x s0\n")
    rejects("nondet_spec.txt", "gen-suite --spec {out}/nondet_spec.txt -m 2 -o {out}/nondet")
    rejects("manifest.json", f"gen-suite --spec {{out}}/spec.txt -m {'9' * 4300} -o {{out}}/huge")
    pin("huge exists", (out / "huge").exists(), False)


def benchmark_smoke_test(out):
    run([sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"])


CHECKS = [demos, recorded_answers, cover_at_scale, determinize_at_scale, generators_at_scale,
          suite_at_scale, runs_at_scale, word_lists_at_scale, bad_inputs, benchmark_smoke_test]


def main():
    failed = 0
    for check in CHECKS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                check(Path(tmp))
                print(f"PASS {check.__name__}", flush=True)
            except Exception:
                print(f"FAIL {check.__name__}\n{traceback.format_exc()}", flush=True)
                failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
