"""JSON-driven command-line front end.

Subcommands: uncertainty, demo, fuzz, replay, sweep-example4, sharp,
conjugate, coarse-grain, sequential, conditioned, validate.  All file I/O
uses the JSON schemas defined by the serialization module.  Exit codes: 0
success, 1 fuzz found a violated property, 2 parse or validation error
(with a machine-readable diagnostic on stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import inspect
import math
import os
import stat
import sys

import numpy as np

from . import demos, fuzz, serialization as ser
from .errors import ParseError, QobsError, ValidationError
from .instruments import conditioned_observable, sequential_product
from .linalg import (MAX_OUTCOMES, TOL_LIN, TOL_PSD, TOL_STAT, require_dim,
                     require_hermitian)
from .observables import coarse_grain, conjugate, sharp_version
from .sampling import random_bloch_vector
from .statistics import _is_equality, uncertainty_report
from .serialization import SCHEMA_VERSION


# File inputs of the observable-valued subcommands: (flag, decoder, help).
_OBS_FILE = ("obs", lambda raw, a: ser.decode_observable(
    raw, "observable", tol_lin=a.tol_lin, tol_psd=a.tol_psd), None)
_INSTRUMENT_FILE = ("instrument", lambda raw, a: ser.decode_instrument(
    raw, "instrument", tol_lin=a.tol_lin, tol_psd=a.tol_psd), None)
_MAP_FILE = ("map", lambda raw, a: ser.decode_function_map(raw, "map"),
             "JSON object {label: value}")
_TOLS = ("tol-lin", "tol-psd")  # read by every decoder of an input file

# Subcommands that decode their input files, make one library call and print
# the resulting observable: name -> (help, flags besides _TOLS, inputs, call).
# The call takes the decoded inputs, and its flags as keywords.
_OBSERVABLE_COMMANDS = {
    "sharp": ("sharp version of an observable", ("cluster-tol",), (_OBS_FILE,),
              sharp_version),
    "conjugate": ("conjugate of an observable", ("cluster-tol",), (_OBS_FILE,),
                  conjugate),
    "coarse-grain": ("relabel outcomes through a real-valued map", (),
                     (_OBS_FILE, _MAP_FILE), coarse_grain),
    "sequential": ("product observable of instrument then observable", (),
                   (_INSTRUMENT_FILE, _OBS_FILE), sequential_product),
    "conditioned": ("observable conditioned by a nonselective measurement",
                    (), (_INSTRUMENT_FILE, _OBS_FILE), conditioned_observable),
}


_SHARED_FLAGS = {  # flags that several subcommands read: (type, default, help)
    "tol-lin": (float, TOL_LIN, "tolerance for structural identities"),
    "tol-psd": (float, TOL_PSD, "negative-eigenvalue slack for PSD checks"),
    "tol-stat": (float, TOL_STAT, "tolerance for statistical identities"),
    "cluster-tol": (float, None, "eigenvalue clustering width (default scale-aware)"),
    "seed": (int, 42, "PRNG seed for randomized commands"),
    "output": (str, "-", "result destination path, '-' for stdout"),
}

# Numeric flags checked before any command runs: flag -> smallest allowed
# value.  Values must also be finite; an unset flag (None) is skipped.
_FLAG_FLOORS = {"tol-lin": 0.0, "tol-psd": 0.0, "tol-stat": 0.0,
                "cluster-tol": 0.0, "seed": 0, "dim": 1, "outcomes": 1,
                "samples": 1, "surface": 0}
_MAX_SWEEP_ROWS = 100_000  # each row takes ~1 KB until the output is written


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):
        def error(self, message):  # a usage error becomes a JSON diagnostic
            raise ParseError(message)

    parser = Parser(prog="qobs", allow_abbrev=False,  # no prefixes of flags
                    description="Finite-dimensional quantum measurement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, flags, into=sub):  # a parser with only these flags
        p = into.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            kind, default, text = _SHARED_FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, default=default, help=text)
        # main sets args.json first; a nested parser's default would undo it
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="single-line JSON output")
        return p

    p = add("uncertainty", "uncertainty report for a state and two observables",
            (*_TOLS, "tol-stat"))
    p.add_argument("--state", required=True, metavar="FILE")
    p.add_argument("--obs-a", required=True, metavar="FILE")
    p.add_argument("--obs-b", required=True, metavar="FILE")

    examples = add("demo", "closed-form demonstration cases", ()) \
        .add_subparsers(dest="name", required=True)
    for name in demos.DEMO_NAMES:  # the flags are the demo's own parameters
        run = getattr(demos, f"demo_{name}")
        p = add(name, (run.__doc__ or name).partition(".")[0], (), examples)
        for q in inspect.signature(run).parameters.values():
            tup = isinstance(q.default, tuple)  # passed only when given
            shown = ",".join(map(str, q.default)) if tup else q.default
            p.add_argument(f"--{q.name}", type=str if tup else type(q.default),
                           default=argparse.SUPPRESS, help=f"default: {shown}")

    p = add("fuzz", "randomized property verification", _SHARED_FLAGS)
    p.add_argument("--trials", type=int, default=fuzz.RunConfig.trials)
    p.add_argument("--dims", type=str,
                   default=",".join(map(str, fuzz.RunConfig.dims)),
                   help="comma list or A..B range of dimensions")

    p = add("replay", "re-evaluate the worst instance of a fuzz summary",
            ("output",))
    p.add_argument("file", metavar="FILE", help="a summary written by fuzz")

    p = add("sweep-example4", "noisy-spin term sweep over mu and Bloch vectors",
            ("seed",))
    p.add_argument("--mu-grid", type=str, default="0,0.25,0.5,0.75,1")
    p.add_argument("--samples", type=int, default=50,
                   help="random Bloch vectors per mu")
    p.add_argument("--surface", type=int, default=10,
                   help="how many of the samples lie on the sphere")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    for name, (help_text, flags, inputs, _) in _OBSERVABLE_COMMANDS.items():
        p = add(name, help_text, (*_TOLS, *flags))
        for flag, _, flag_help in inputs:
            p.add_argument(f"--{flag}", required=True, metavar="FILE",
                           help=flag_help)

    p = add("validate", "validate any toolkit JSON file", _TOLS)
    p.add_argument("file", metavar="FILE")
    return parser


def _emit(obj, args, stream=None) -> None:
    stream = stream or sys.stdout
    stream.write(ser.canonical_json(obj, compact=args.json))
    stream.write("\n")


def _diagnostic(exc: QobsError) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "error": {
            "type": type(exc).__name__,
            "file": exc.file,
            "field": exc.field,
            "invariant": exc.invariant,
            "violation": exc.violation,
            "message": str(exc),
        },
    }


def _load(path: str, decode, *args, **kw):
    """Read one input file and decode it; a toolkit error raised on the way
    carries the file's path, for the diagnostic."""
    try:
        return decode(ser.load_json_file(path), *args, **kw)
    except QobsError as exc:
        exc.file = path
        raise


def _decode_operand(obj, field: str, tol_lin: float, tol_psd: float):
    """An observable file, or a bare matrix file checked Hermitian at
    ``tol_lin`` and returned as its exactly Hermitian part, so the statistics'
    own check at the default tolerance accepts it."""
    if isinstance(obj, dict) and obj.get("type") == "observable":
        return ser.decode_observable(obj, field, tol_lin=tol_lin,
                                     tol_psd=tol_psd)
    M = require_hermitian(ser.decode_matrix(obj, field), tol_lin, name=field)
    return (M + M.conj().T) / 2.0


def _parse_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." not in text:
            return tuple(int(part) for part in text.split(","))
        lo, hi = (int(part) for part in text.split("..", 1))
    except ValueError:
        raise ValidationError(
            f"expected A..B or a comma list of integers, got {text!r}",
            invariant="integer-list", field="--dims") from None
    # An end below 1 leaves a 0 in the range, for RunConfig to reject.
    return tuple(range(max(lo, 0), require_dim(hi, "--dims") + 1))


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"expected comma-separated reals, got {text!r}",
                              invariant="real-list", field=flag) from None


def _cmd_uncertainty(args) -> int:
    rho = _load(args.state, ser.decode_state, "state",
                tol_lin=args.tol_lin, tol_psd=args.tol_psd)
    A = _load(args.obs_a, _decode_operand, "obs-a", args.tol_lin, args.tol_psd)
    B = _load(args.obs_b, _decode_operand, "obs-b", args.tol_lin, args.tol_psd)
    rep = uncertainty_report(rho, A, B, tol=args.tol_stat)
    _emit({**ser.encode_report(rep), "equality": _is_equality(rep)}, args)
    return 0


def _cmd_demo(args) -> int:
    run = getattr(demos, f"demo_{args.name}")
    params = {key: getattr(args, key)
              for key in inspect.signature(run).parameters if hasattr(args, key)}
    if "bloch" in params:
        params["bloch"] = _parse_floats(params["bloch"], "--bloch")
        if len(params["bloch"]) != 3:
            raise ValidationError("expected three comma-separated reals",
                                  invariant="bloch-shape", field="--bloch")
    if params.get("outcomes", 0) > MAX_OUTCOMES:
        raise ValidationError(f"{params['outcomes']} is above {MAX_OUTCOMES}",
                              invariant="outcomes-range", field="--outcomes")
    if "dim" in params:
        require_dim(params["dim"], "--dim")
    _emit(run(**params), args)
    return 0


def _cmd_fuzz(args) -> int:
    if args.command == "replay":
        run = functools.partial(_load, args.file, fuzz.replay_instance)
    else:  # the config is checked before the output is opened
        run = functools.partial(fuzz.run_fuzz, fuzz.RunConfig(
            seed=args.seed, trials=args.trials, dims=_parse_dims(args.dims),
            tol_lin=args.tol_lin, tol_psd=args.tol_psd,
            tol_stat=args.tol_stat, cluster_tol=args.cluster_tol))
    out, created = contextlib.nullcontext(), False
    try:  # before the run, so an unwritable path costs no fuzzing; an existing
        # PATH is opened to append, so a failed run (or a replay of PATH) keeps it
        if args.output != "-":
            try:  # made by this run, so a failed run removes it
                out, created = open(args.output, "x", encoding="utf-8"), True
            except FileExistsError:
                out = open(args.output, "a", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {args.output}: {exc.strerror}",
                              invariant="writable-output", field="--output") from None
    try:
        with out as stream:
            result = run()
            # a result exists: replace what PATH held (a device or pipe has none)
            if stream is not None and stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
                stream.truncate(0)
            _emit(result, args, stream)
    except BaseException:
        if created:  # a regular file, as ``open`` mode "x" makes one
            os.remove(args.output)
        raise
    return 1 if result.get("violations") else 0


def _cmd_sweep(args) -> int:
    mu_grid = _parse_floats(args.mu_grid, "--mu-grid")
    if not mu_grid:
        raise ValidationError("must be nonempty",
                              invariant="nonempty-grid", field="--mu-grid")
    if args.samples * len(mu_grid) > _MAX_SWEEP_ROWS:
        raise ValidationError(
            f"{args.samples} x {len(mu_grid)} mu values is above "
            f"{_MAX_SWEEP_ROWS} rows", invariant="samples-range", field="--samples")
    rng = np.random.default_rng(args.seed)
    n_surface = min(args.surface, args.samples)
    vectors = [random_bloch_vector(rng, surface=True) for _ in range(n_surface)]
    vectors += [random_bloch_vector(rng)
                for _ in range(args.samples - n_surface)]
    result = demos.sweep_noisy_spin(mu_grid, vectors)
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, list(result["rows"][0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(result["rows"])
    else:
        _emit(result, args)
    return 0


def _cmd_observable(args) -> int:
    _, flags, inputs, op = _OBSERVABLE_COMMANDS[args.command]
    operands = [_load(getattr(args, flag), load, args)
                for flag, load, _ in inputs]
    kw = {name: getattr(args, name) for name in
          (flag.replace("-", "_") for flag in flags)}
    out = ser.encode_observable(op(*operands, **kw))
    out["schema"] = SCHEMA_VERSION
    _emit(out, args)
    return 0


def _describe(raw, args) -> tuple[str, dict]:
    """The kind of a toolkit JSON payload and a summary of it, validating it
    on the way."""
    tols = {"tol_lin": args.tol_lin, "tol_psd": args.tol_psd}
    kind = raw.get("type") if isinstance(raw, dict) else None
    if kind in ("density", "bloch"):
        rho = ser.decode_state(raw, "state", **tols)
        return kind, {"dim": rho.dim, "min_eigenvalue": rho.eigenvalues[0]}
    if kind == "observable":
        A = ser.decode_observable(raw, "observable", **tols)
        return kind, {"dim": A.dim, "outcomes": len(A)}
    if kind == "instrument":
        inst = ser.decode_instrument(raw, "instrument", **tols)
        return kind, {"dim": inst.dim, "outcomes": len(inst)}
    if isinstance(raw, dict) and "re" in raw:
        M = ser.decode_matrix(raw, "matrix")
        return "matrix", {"dim": int(M.shape[0])}
    raise ParseError("unrecognized, and the file is not a matrix", field="type")


def _cmd_validate(args) -> int:
    kind, summary = _load(args.file, _describe, args)
    _emit({"schema": SCHEMA_VERSION, "valid": True, "kind": kind,
           "summary": summary}, args)
    return 0


_HANDLERS = {
    "uncertainty": _cmd_uncertainty,
    "demo": _cmd_demo,
    "fuzz": _cmd_fuzz,
    "replay": _cmd_fuzz,
    "sweep-example4": _cmd_sweep,
    "validate": _cmd_validate,
    **{name: _cmd_observable for name in _OBSERVABLE_COMMANDS},
}


def main(argv=None) -> int:
    args = argparse.Namespace(json="--json" in (sys.argv if argv is None else argv))
    try:
        _build_parser().parse_args(argv, args)  # a usage error keeps args.json
        for flag, floor in _FLAG_FLOORS.items():
            value = getattr(args, flag.replace("-", "_"), None)
            if value is not None and not floor <= value < math.inf:
                raise ValidationError(
                    f"expected a finite number >= {floor}, got {value}",
                    invariant="flag-range", field=f"--{flag}")
        with np.errstate(all="ignore"):  # overflow shows as null or exit 2
            return _HANDLERS[args.command](args)
    except QobsError as exc:
        _emit(_diagnostic(exc), args)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
