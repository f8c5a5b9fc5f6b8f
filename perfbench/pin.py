#!/usr/bin/env python3
"""Regenerate expected.json: the train and eval perplexity of one training
round and one eval pass, per workload and seed.

    python3 perfbench/pin.py --seeds 0-99

Re-pin only when the workloads or their inputs change on purpose. A change
to the package must reproduce the pinned values, not re-pin them.
"""

import argparse
import json
import sys

import run  # sets the BLAS thread count before numpy is imported

RTOL = 1e-9  # last-bit reduction-order changes pass; a wrong gradient does not


def pin(workload: str, seed: int) -> list:
    from workloads import WORKLOADS, generate

    w = WORKLOADS[workload]
    m, _ = run.setup(w, generate(w, seed), seed)
    tokens = sum(c.inputs.size for c in run.train_windows(m))
    train, evals, _ = run.run_cycles(m, seed, 0.0, None, tokens)
    return [train.ppls[0], evals.ppls[0]]


def main() -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    p.add_argument("--workload", choices=list(WORKLOADS), action="append")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    if run._load_package() is None:
        print(f"error: rrntn sources not found under {run.SRC}", file=sys.stderr)
        return 2
    path = run.HERE / "expected.json"
    with open(path, encoding="utf-8") as f:
        expected = json.load(f)
    expected["rtol"] = RTOL
    for name in args.workload or WORKLOADS:
        pins = expected["pins"].setdefault(name, {})
        for seed in range(lo, hi + 1):
            pins[str(seed)] = pin(name, seed)
            print(name, seed, pins[str(seed)], flush=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
