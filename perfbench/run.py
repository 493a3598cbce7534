"""qobs benchmark: one workload per process, closed loop, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fuzz_small --seed 1 --seconds 20 --trace 0

Prints one line per metric, then, as the last line, a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``spec.py``; with
``--trace 1`` they are the per-layer metrics, from a run that first measures
half the time untraced and then half traced.  ``--write-spec`` regenerates
``BENCHMARK.json``.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here, before any import

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5      # this process plus SETUP_SAMPLES - 1 fresh ones
COLD_LAUNCHES = 9
CHILD_TIMEOUT_S = 60

sys.path.insert(0, HERE)
import spec  # noqa: E402  (stdlib only)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=spec.BASELINE_SEED)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used internally)")
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from spec.py and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def _setup(name: str, seed: int, workdir: str):
    import workloads

    w = workloads.make(name)
    w.setup(seed, workdir)
    w.warm_up()
    return w


def _timed(w, seconds: float, first_k: int, ref, tracer=None):
    """Closed loop: issue op k only after op k-1 finished.  Runs at least
    ``seconds`` and stops on a multiple of ``w.cycle`` ops.  The reference
    kernel runs between ops, outside their timing.  Returns the op times
    calibrated by the kernel (see reference.py), the raw ones, and the
    number of failed ops."""
    times, stamps, failed, k = [], [], 0, first_k
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.begin_op(k)
        t = time.perf_counter()
        try:
            out = w.run_op(k)
        except Exception:  # a failed op is counted, and the run goes on
            if failed == 0:
                traceback.print_exc()
            out = None
        finally:
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.end_op()
        times.append(dt)
        stamps.append(t + dt)
        if out is None or not w.op_ok(k, out):
            failed += 1
        ref.pay(dt)
        k += 1
        if time.perf_counter() >= deadline and (k - first_k) % w.cycle == 0:
            return ref.calibrate(times, stamps), times, failed


def _launch(cmd: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t = time.perf_counter()
    res = subprocess.run(cmd, capture_output=True, text=True, env=env,
                         timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t, res


def _setup_samples(args, own: float) -> tuple[list[float], list[float]]:
    """Set-up time of this process and of fresh processes, each of which
    imports, makes its inputs and warms up on its own.  Set-up is mostly
    process start-up work, so each sample is calibrated by a reference
    launch made right after it.  Returns (raw, calibrated) samples."""
    import reference

    env = dict(os.environ, PYTHONPATH=SRC)
    raw, calibrated = [], []
    for i in range(SETUP_SAMPLES):
        if i:
            _, res = _launch([sys.executable, os.path.abspath(__file__),
                              "--workload", args.workload, "--seed",
                              str(args.seed), "--setup-only"], env)
            if res.returncode != 0:
                raise RuntimeError(f"set-up process failed: {res.stderr.strip()}")
            own = float(res.stdout.strip().splitlines()[-1])
        ref_s, res = _launch([sys.executable, *reference.LAUNCH_ARGS], env)
        if res.returncode != 0:
            raise RuntimeError(f"reference launch failed: {res.stderr.strip()}")
        raw.append(own)
        calibrated.append(own * reference.NOMINAL_LAUNCH_MS / (ref_s * 1e3))
    return raw, calibrated


def _cold_cli(seed: int, workdir: str) -> tuple[list[float], float, int]:
    """Wall times of launching the CLI as a subprocess, one at a time, each
    followed by a reference launch.  Returns the CLI times, the calibration
    factor from the reference launches and the number of bad CLI launches."""
    import numpy as np
    import reference
    import workloads

    argv, expected = workloads.cold_cli_case(np.random.default_rng(seed), workdir)
    env = dict(os.environ, PYTHONPATH=SRC)
    times, ref_times, bad = [], [], 0
    for _ in range(COLD_LAUNCHES):
        dt, res = _launch([sys.executable, "-m", "qobs.cli", *argv], env)
        times.append(dt)
        bad += res.returncode != 0 or res.stdout != expected
        dt, res = _launch([sys.executable, *reference.LAUNCH_ARGS], env)
        if res.returncode != 0:
            raise RuntimeError(f"reference launch failed: {res.stderr.strip()}")
        ref_times.append(dt)
    factor = reference.NOMINAL_LAUNCH_MS / (statistics.median(ref_times) * 1e3)
    return times, factor, bad


def _environment() -> dict:
    """Informational record: thread settings, versions, machine size, and
    the static size of the library (not gated: features add lines)."""
    import platform
    import types

    import numpy as np
    import qobs

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "qobs")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    public = [n for n in dir(qobs) if not n.startswith("_")
              and not isinstance(getattr(qobs, n), types.ModuleType)]
    return {"threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "machine": platform.machine(), "src_lines": src_lines,
            "public_names": len(public)}


def _p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def _emit(correct: bool, attempted: int, failed: int, metrics: dict,
          units: dict) -> None:
    print(f"# env {json.dumps(_environment())}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            fh.write(spec.benchmark_json())
        return 0
    if not os.path.isfile(os.path.join(SRC, "qobs", "__init__.py")):
        print(f"error: no qobs sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        w = _setup(args.workload, args.seed, workdir)
        own_setup = time.perf_counter() - T_START
        if args.setup_only:
            print(own_setup)
            return 0
        if args.trace:
            return _traced_run(args, w)
        return _plain_run(args, w, own_setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _plain_run(args, w, own_setup: float, workdir: str) -> int:
    import numpy as np
    from reference import Reference

    setup_raw, setup = _setup_samples(args, own_setup)
    ref = Reference()
    ref.warm_up()
    cal, times, failed = _timed(w, args.seconds, 0, ref)
    problems = w.final_problems()
    cold, f_cold, cold_bad = _cold_cli(args.seed, workdir)
    if cold_bad:
        problems.append(f"{cold_bad} of {len(cold)} cold CLI launches failed")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    n = len(times)
    raw = {
        "setup_s": statistics.median(setup_raw),
        "op_ms_p50": statistics.median(times) * 1e3,
        "ops_per_s": n / sum(times),
        "cli_cold_ms_p50": statistics.median(cold) * 1e3,
    }
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": float(np.median(cal)) * 1e3,
        "ops_per_s": n / float(cal.sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_cold_ms_p50": raw["cli_cold_ms_p50"] * f_cold,
    }
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    print(f"# {args.workload} seed={args.seed}: {n} ops, {failed} failed "
          f"(failed_frac {failed / n:.3g}); op_ms_p50 over {n} ops, setup_s "
          f"over {len(setup)} set-ups, cli_cold_ms_p50 over {len(cold)} launches")
    if n >= 100:
        print(f"# op_ms_p90 {_p90(list(cal)) * 1e3:.6g} ms over {n} ops")
    print("# uncalibrated: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + f"; reference kernel median {ref.median_ms():.4g} ms"
          + f"; cold launch factor {f_cold:.4g}")
    _emit(failed == 0 and not problems, n, failed, metrics, units)
    return 0


def _traced_run(args, w) -> int:
    from reference import Reference
    from tracer import Tracer

    half = args.seconds / 2
    ref_plain, ref_traced = Reference(), Reference()
    ref_plain.warm_up()
    plain, _, failed_plain = _timed(w, half, 0, ref_plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_raw, failed_traced = _timed(w, half, len(plain),
                                                   ref_traced, tracer)
    finally:
        tracer.uninstall()
    problems = w.final_problems()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}.npz"))
    overhead = float(statistics.median(traced) / statistics.median(plain))
    units = {name: unit for name, unit, _ in spec.per_layer_metrics()}
    metrics = tracer.per_layer(len(traced), overhead)
    scale = float(traced.sum()) / sum(traced_raw)  # calibrates span times
    for name in metrics:
        if units[name] == "ms":
            metrics[name] *= scale
    print(f"# {args.workload} seed={args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced ops; figures are per traced op")
    failed = failed_plain + failed_traced
    _emit(failed == 0 and not problems, len(plain) + len(traced), failed,
          metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
