"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads fuzz_small cli_json --runs 10

For every workload and end-to-end metric this prints the median of the
runs, the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), and that spread over the
metric's bound.  Seeds are ``--first-seed``, ``--first-seed + 1``, ...
``--out FILE`` also saves every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import spec  # noqa: E402

RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int) -> dict:
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}:\n"
                           f"{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=spec.BASELINE_SEED)
    p.add_argument("--out", default=None, help="save every run's result here")
    args = p.parse_args(argv)

    results: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            out = run_once(workload, seed)
            out["seed"] = seed
            runs.append(out)
            print(f"  seed {seed}: attempted {out['attempted']} failed "
                  f"{out['failed']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in out["metrics"].items()),
                  flush=True)
            ok &= out["correct"] and out["failed"] == 0
        results[workload] = runs
        print(f"{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for name, unit, _, bound in spec.END_TO_END:
            med, rel = spread([r["metrics"][name]["value"] for r in runs])
            print(f"  {name:16s} median {med:12.6g} {unit:4s} spread "
                  f"{rel:7.2%}  bound {bound:.0%}  spread/bound {rel / bound:5.2f}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
