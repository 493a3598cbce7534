"""The benchmark's workloads: inputs made from the seed, one op, its check.

Every library call goes through a module attribute (``fuzz.run_fuzz``, not
a name imported from it), so that the tracer sees it when installed.
Import this module only after the BLAS thread variables are set.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections import Counter

import numpy as np

from qobs import (
    cli,
    demos,
    fuzz,
    instruments,
    observables,
    sampling,
    statistics,
    serialization as ser,
)
from qobs.linalg import TOL_STAT


class Workload:
    """One op at a time.  A timed phase ends on a multiple of ``cycle`` ops,
    so that every input of a cyclic mix is measured equally often."""

    cycle = 1

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_op(self, k: int):
        raise NotImplementedError

    def op_ok(self, k: int, out) -> bool:
        raise NotImplementedError

    def final_problems(self) -> list[str]:
        """Checks made once after the timed phase; empty when all pass."""
        return []


class Fuzz(Workload):
    """One op is one ``run_fuzz`` call; ops cycle through a pool of fuzz
    seeds drawn from the workload seed."""

    POOL = 64

    def __init__(self, dims, trials):
        self.dims = tuple(dims)
        self.trials = trials
        self.first = None

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.configs = [fuzz.RunConfig(seed=int(s), trials=self.trials,
                                       dims=self.dims)
                        for s in rng.integers(2 ** 31, size=self.POOL + 1)]
        self.warm_config = self.configs.pop()

    def warm_up(self) -> None:
        fuzz.run_fuzz(self.warm_config)

    def run_op(self, k: int):
        return fuzz.run_fuzz(self.configs[k % len(self.configs)])

    def op_ok(self, k: int, out) -> bool:
        if k == 0:
            self.first = out
        return out["violations"] == 0

    def final_problems(self) -> list[str]:
        """Re-run op 0: its summary must be byte-identical, and every
        (dim, family) cell must get the same number of trials."""
        cells: Counter = Counter()
        build = fuzz.build_instance

        def counting_build(rng, dim, family):
            cells[(dim, family)] += 1
            return build(rng, dim, family)

        fuzz.build_instance = counting_build
        try:
            again = fuzz.run_fuzz(self.configs[0])
        finally:
            fuzz.build_instance = build
        problems = []
        if self.first is None:
            problems.append("op 0 did not complete")
        elif ser.canonical_json(again) != ser.canonical_json(self.first):
            problems.append("fuzz summary of op 0 differs on re-run")
        expected = {(d, f) for d in self.dims for f in fuzz.FAMILIES}
        if set(cells) != expected or len(set(cells.values())) != 1:
            problems.append(f"unequal (dim, family) coverage: {dict(cells)}")
        return problems


class SweepQubit(Workload):
    """One op is one ``demos.sweep_noisy_spin`` call over the fixed mu grid
    and one of a pool of seeded Bloch-vector sets (a fifth on the sphere)."""

    MU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
    VECTORS = 40
    SURFACE = 8
    POOL = 32

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.sets = [[sampling.random_bloch_vector(rng, surface=j < self.SURFACE)
                      for j in range(self.VECTORS)] for _ in range(self.POOL)]

    def warm_up(self) -> None:
        for k in range(3):
            self.run_op(k)

    def run_op(self, k: int):
        return demos.sweep_noisy_spin(self.MU_GRID, self.sets[k % self.POOL])

    def op_ok(self, k: int, out) -> bool:
        return (out["pass"] is True
                and len(out["rows"]) == len(self.MU_GRID) * self.VECTORS)


INSTRUMENT_FAMILIES = ("trivial", "holevo", "lueders", "kraus")


class CliJson(Workload):
    """One op is one in-process ``qobs.cli.main(argv)`` call with stdout
    captured.  One case per (d, instrument family), each with its own input
    files; each case runs 7 subcommands.  The expected stdout of every call
    is computed at setup through the library API and the serialization
    encoders."""

    DIMS = (2, 4)

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.calls: list[tuple[list[str], str]] = []
        for d in self.DIMS:
            for family in INSTRUMENT_FAMILIES:
                case = os.path.join(workdir, f"d{d}-{family}")
                os.makedirs(case, exist_ok=True)
                self.calls += _cli_case(rng, d, family, case)
        self.cycle = len(self.calls)

    def warm_up(self) -> None:
        for k in range(self.cycle):
            if not self.op_ok(k, self.run_op(k)):
                raise RuntimeError(f"cli call {self.calls[k][0]} gave an "
                                   "unexpected result during warm-up")

    def run_op(self, k: int):
        argv = self.calls[k % self.cycle][0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def op_ok(self, k: int, out) -> bool:
        code, text = out
        return code == 0 and text == self.calls[k % self.cycle][1]


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _expected(obj) -> str:
    return ser.canonical_json(obj, compact=True) + "\n"


def _with_schema(obj: dict) -> dict:
    obj["schema"] = ser.SCHEMA_VERSION
    return obj


def _instrument_json(rng, d: int, family: str) -> dict:
    n = int(rng.integers(2, 4))
    if family == "trivial":
        probs = sampling.random_probability_vector(rng, n)
        xs = sampling.random_outcomes(rng, n)
        return {"type": "instrument", "family": "trivial", "dim": d,
                "omega": {repr(x): float(p) for x, p in zip(xs, probs)}}
    A = sampling.random_observable(rng, d, n)
    if family == "lueders":
        return {"type": "instrument", "family": "lueders",
                "observable": ser.encode_observable(A)}
    alphas = [sampling.random_density(rng, d) for _ in range(n)]
    if family == "holevo":
        return {"type": "instrument", "family": "holevo",
                "observable": ser.encode_observable(A),
                "states": [ser.encode_state(a) for a in alphas]}
    return ser.encode_instrument(instruments.holevo_instrument(A, alphas))


def _cli_case(rng, d: int, family: str, case: str) -> list[tuple[list[str], str]]:
    """Input files for one case and its 7 (argv, expected stdout) pairs."""
    rho = sampling.random_density(rng, d)
    A = sampling.random_observable(rng, d, 3)
    B = sampling.random_observable(rng, d, 2)
    fmap = {repr(x): float(v) for x, v in
            zip(A.outcomes, rng.integers(-1, 2, size=len(A)))}
    paths = {
        "state": _write(os.path.join(case, "state.json"), ser.encode_state(rho)),
        "a": _write(os.path.join(case, "a.json"), ser.encode_observable(A)),
        "b": _write(os.path.join(case, "b.json"), ser.encode_observable(B)),
        "map": _write(os.path.join(case, "map.json"), fmap),
        "inst": _write(os.path.join(case, "inst.json"),
                       _instrument_json(rng, d, family)),
    }
    # The reference decodes the same files, as any client of the library would.
    loaded = {k: ser.load_json_file(p) for k, p in paths.items()}
    rho = ser.decode_state(loaded["state"])
    A = ser.decode_observable(loaded["a"])
    B = ser.decode_observable(loaded["b"])
    inst = ser.decode_instrument(loaded["inst"])

    rep = statistics.uncertainty_report(rho, A, B, tol=TOL_STAT)
    report = ser.encode_report(rep)
    report["equality"] = bool(rep.inequality_slack
                              <= TOL_STAT * max(1.0, rep.correlation_sq))
    fA = observables.coarse_grain(A, ser.decode_function_map(loaded["map"]))
    p = paths
    return [
        (["uncertainty", "--state", p["state"], "--obs-a", p["a"],
          "--obs-b", p["b"], "--json"], _expected(report)),
        (["sharp", "--obs", p["a"], "--json"], _expected(_with_schema(
            ser.encode_observable(observables.sharp_version(A))))),
        (["conjugate", "--obs", p["a"], "--json"], _expected(_with_schema(
            ser.encode_observable(observables.conjugate(A))))),
        (["coarse-grain", "--obs", p["a"], "--map", p["map"], "--json"],
         _expected(_with_schema(ser.encode_observable(fA)))),
        (["sequential", "--instrument", p["inst"], "--obs", p["b"], "--json"],
         _expected(_with_schema(ser.encode_observable(
             instruments.sequential_product(inst, B))))),
        (["conditioned", "--instrument", p["inst"], "--obs", p["b"], "--json"],
         _expected(_with_schema(ser.encode_observable(
             instruments.conditioned_observable(inst, B))))),
        (["validate", p["inst"], "--json"],
         _expected({"schema": ser.SCHEMA_VERSION, "valid": True,
                    "kind": "instrument",
                    "summary": {"dim": inst.dim, "outcomes": len(inst)}})),
    ]


def cold_cli_case(rng, workdir: str) -> tuple[list[str], str]:
    """A small ``validate`` call for timing cold CLI launches."""
    path = _write(os.path.join(workdir, "cold_state.json"),
                  ser.encode_state(sampling.random_density(rng, 2)))
    rho = ser.decode_state(ser.load_json_file(path))
    expected = _expected({"schema": ser.SCHEMA_VERSION, "valid": True,
                          "kind": "density",
                          "summary": {"dim": rho.dim,
                                      "min_eigenvalue": rho.eigenvalues[0]}})
    return ["validate", path, "--json"], expected


def make(name: str) -> Workload:
    if name == "fuzz_small":
        return Fuzz(dims=(2, 3, 4, 5, 6), trials=15)
    if name == "sweep_qubit":
        return SweepQubit()
    if name == "cli_json":
        return CliJson()
    raise ValueError(f"unknown workload {name!r}")
