"""Record every op's answer on the default seed into ``expected_seed0.json``.

Usage (from the root of a checkout): python3 perfbench/record_expected.py

The benchmark compares each op it runs on the default seed with this file, so
the file must be recorded again, and the change said in the commit, whenever
the library is meant to give different verdicts, witnesses or fault models.
Cross-oracles run here too: an op that fails them stops the recording.
"""

from __future__ import annotations

import json
import sys

from measure import DEFAULT_SEED, EXPECTED, WORKDIR, import_library


def main() -> int:
    import_library()
    import workloads

    WORKDIR.mkdir(parents=True, exist_ok=True)
    answers = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(False, str(WORKDIR / "record"))
        inputs = wl.setup(DEFAULT_SEED)
        answers[name] = {}
        try:
            for op in wl.ops(inputs):
                result = wl.run(inputs, op)
                problems = wl.check(inputs, op, result)
                if problems:
                    print(f"{name} {op.key}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                answers[name][op.key] = wl.answer(op, result)
        finally:
            wl.cleanup()
        print(f"{name}: {len(answers[name])} answers")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
