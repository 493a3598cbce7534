"""JSON encoding and decoding for every object the CLI exchanges.

Matrix schema, used everywhere: ``{"dim": d, "re": [[...]], "im": [[...]]}``
with row-major d x d arrays of doubles; a missing ``"im"`` means an all-zero
imaginary part.  Decoding re-validates all domain invariants, since files
are untrusted input.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from itertools import chain

import numpy as np

from .errors import ParseError, ValidationError
from .instruments import (
    Instrument,
    holevo_instrument,
    lueders_instrument,
    trivial_instrument,
)
from .linalg import TOL_LIN, TOL_PSD, require_dim
from .observables import Observable, canonical_outcome, is_real
from .states import DensityOperator, bloch_state
from .statistics import UncertaintyReport

SCHEMA_VERSION = 1
# The largest input file read: 120 complex 64 x 64 effects as canonical_json
# writes them (~277 kB each), or six d=64 fuzz dumps.  A written observable
# with more such effects, which only `sequential` can produce from readable
# inputs, is refused when read back (see README).
MAX_FILE_BYTES = 32 * 2 ** 20
_FIRST_READ = 2 ** 16  # below malloc's mmap threshold


def _expect(obj, key: str, field: str):
    if not isinstance(obj, Mapping):
        raise ParseError("expected a JSON object", field=field)
    if key not in obj:
        raise ParseError("missing required field", field=f"{field}.{key}")
    return obj[key]


def _finite_grid(raw, shape: tuple) -> np.ndarray | None:
    """``raw`` as a float array of ``shape`` with finite entries, or None."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if arr.shape == shape and np.isfinite(arr).all() else None


def _numbers(grids) -> bool:
    """Whether every entry of these JSON grids, lists of rows, is a number by
    ``_real``'s rule, which ``np.asarray`` does not keep: no string or bool."""
    return set(map(type, chain.from_iterable(chain.from_iterable(grids)))) <= {int, float}


def _real_grid(raw, d: int, field: str) -> np.ndarray:
    arr = _finite_grid(raw, (d, d))
    if arr is None or not _numbers([raw]):
        raise ParseError(f"expected a {d}x{d} array of finite numbers",
                         field=field)
    return arr


def _list(raw, field: str) -> list:
    if not isinstance(raw, list):
        raise ParseError("expected a list", field=field)
    return raw


def _real(x, field: str) -> float:
    try:  # a JSON number; float() would also take a string or a bool
        if is_real(x):
            return float(x)
    except OverflowError:  # an int beyond the float range
        pass
    raise ParseError("expected a number", field=field)


def _located(field: str, build, *args, **kw):
    """build(*args, **kw), whose ``ValidationError`` names a JSON path: its
    ``effect[1]`` is ``<field>.effects[1]``, ``alphas[1]`` (a Holevo state)
    ``<field>.states[1]``, ``state`` or no field ``<field>``."""
    try:
        return build(*args, **kw)
    except ValidationError as exc:
        if exc.invariant != "tolerance-range":  # a parameter, not in the doc
            name = (exc.field or "state").replace("effect[", "effects[", 1)
            name = name.replace("alphas[", "states[", 1)
            exc.field = field if name == "state" else f"{field}.{name}"
        raise


def _encode_stack(M: np.ndarray) -> list[dict]:
    """The matrix documents of a stack of d x d matrices, from one ``tolist``
    per part; an all-zero imaginary part is left out."""
    M = np.asarray(M, dtype=complex)
    docs = [{"dim": M.shape[1], "re": re} for re in M.real.tolist()]
    has_im = (M.imag != 0.0).any(axis=(1, 2))
    if has_im.any():
        for doc, im, keep in zip(docs, M.imag.tolist(), has_im.tolist()):
            if keep:
                doc["im"] = im
    return docs


def encode_matrix(M: np.ndarray) -> dict:
    return _encode_stack(np.asarray(M, dtype=complex)[None])[0]


def _dim(obj, field: str) -> int:
    d = _expect(obj, "dim", field)
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ParseError("expected a positive integer", field=f"{field}.dim")
    return d


def decode_matrix(obj, field: str = "matrix") -> np.ndarray:
    d = _dim(obj, field)
    re = _real_grid(_expect(obj, "re", field), d, f"{field}.re")
    if "im" in obj:
        im = _real_grid(obj["im"], d, f"{field}.im")
    else:
        im = np.zeros((d, d))
    return re + 1j * im


def _matrix_stack(raw: list, field: str):
    """The matrix documents of ``raw`` as one (n, d, d) array, from one
    conversion of all ``re`` grids and one of all ``im`` grids, when every
    entry is an object with the same valid ``dim`` and finite grids of that
    shape.  Otherwise a list of ``decode_matrix`` of each entry, which names
    the first bad one, ``<field>[i]``, and leaves a mismatch of dims or an
    empty list to the constructor."""
    d = raw[0].get("dim") if raw and type(raw[0]) is dict else None
    if type(d) is int and d >= 1 and all(
            type(E) is dict and type(E.get("dim")) is int and E["dim"] == d
            and "re" in E for E in raw):
        shape = (len(raw), d, d)
        re = _finite_grid([E["re"] for E in raw], shape)
        if re is not None and _numbers(E["re"] for E in raw):
            zero = np.zeros((d, d))  # only now is a d x d array backed by the input
            im = _finite_grid([E.get("im", zero) for E in raw], shape)
            if im is not None and _numbers(E["im"] for E in raw if "im" in E):
                return re + 1j * im
    return [decode_matrix(E, f"{field}[{i}]") for i, E in enumerate(raw)]


def encode_state(rho: DensityOperator) -> dict:
    return {"type": "density", "matrix": encode_matrix(rho.matrix)}


def decode_state(obj, field: str = "state", *, tol_lin: float = TOL_LIN,
                 tol_psd: float = TOL_PSD) -> DensityOperator:
    kind = _expect(obj, "type", field)
    if kind == "density":
        M = decode_matrix(_expect(obj, "matrix", field), f"{field}.matrix")
        return _located(field, DensityOperator, M, tol_lin=tol_lin, tol_psd=tol_psd)
    if kind == "bloch":
        r = _expect(obj, "r", field)
        if not isinstance(r, list) or len(r) != 3:
            raise ParseError("expected a list of three numbers", field=f"{field}.r")
        r = [_real(v, f"{field}.r[{i}]") for i, v in enumerate(r)]
        return _located(field, bloch_state, r, tol_lin=tol_lin)
    raise ParseError(f"unknown state type {kind!r}", field=f"{field}.type")


def label_to_str(label) -> str:
    """Flatten outcome labels for JSON: pair labels become 'x,y'."""
    if isinstance(label, tuple):
        return ",".join(label_to_str(part) for part in label)
    if isinstance(label, float):
        return repr(label)
    return str(label)


def encode_observable(A: Observable) -> dict:
    out = {"type": "observable",
           "effects": _encode_stack(A.effects)}
    if A.outcomes is not None:
        out["outcomes"] = list(A.outcomes)
    else:
        out["labels"] = [label_to_str(key) for key in A.keys]
    return out


def decode_observable(obj, field: str = "observable", *,
                      tol_lin: float = TOL_LIN,
                      tol_psd: float = TOL_PSD) -> Observable:
    kind = _expect(obj, "type", field)
    if kind != "observable":
        raise ParseError(f"expected 'observable', got {kind!r}",
                         field=f"{field}.type")
    raw_effects = _expect(obj, "effects", field)
    if not isinstance(raw_effects, list) or not raw_effects:
        raise ParseError("expected a nonempty list", field=f"{field}.effects")
    effects = _matrix_stack(raw_effects, f"{field}.effects")
    # Real outcomes are numbers; labels are read as strings.
    for key, read in (("outcomes", _real), ("labels", lambda s, _: str(s))):
        if key in obj:
            where = f"{field}.{key}"
            return _located(field, Observable,
                            [read(x, f"{where}[{i}]")
                             for i, x in enumerate(_list(obj[key], where))],
                            effects, tol_lin=tol_lin, tol_psd=tol_psd)
    raise ParseError("needs either 'outcomes' or 'labels'", field=field)


class _WrittenKey(float):
    """A numeric map key: it matches as its float and prints as written."""

    def __new__(cls, text: str):
        key = super().__new__(cls, text)
        key.text = text
        return key

    def __repr__(self):  # and str
        return self.text


def _parse_outcome_key(key: str):
    """Map keys in JSON objects are strings; recover numeric outcomes."""
    try:
        return _WrittenKey(key)
    except ValueError:
        return key


def decode_function_map(obj, field: str = "map") -> dict:
    """Coarse-graining map {label: real} with numeric keys recovered."""
    if not isinstance(obj, Mapping) or not obj:
        raise ParseError("expected a nonempty JSON object", field=field)
    return {_parse_outcome_key(key): _real(val, f"{field}.{key}")
            for key, val in obj.items()}


def _outcome_map(obj, field: str) -> dict:
    """``decode_function_map`` whose every value is an outcome, finite, else
    a ``finite-outcome`` error at ``<field>.<key>``."""
    return {key: _located(f"{field}.{key}", canonical_outcome, z)
            for key, z in decode_function_map(obj, field).items()}


def encode_instrument(inst: Instrument) -> dict:
    """The maps as held: Kraus slices, or Holevo pairs keyed by outcome, or by
    pair index with a ``map`` to the outcomes where coarse graining merged them."""
    if len(inst._parts[0]) == 1:
        return {"type": "instrument", "family": "kraus",
                "outcomes": [x if is_real(x) else label_to_str(x)
                             for x in inst.outcomes],
                "kraus": [_encode_stack(p[0]) for p in inst._parts]}
    A, alphas = (np.concatenate(arrs) for arrs in zip(*inst._parts))
    zs = [z for (E, _), z in zip(inst._parts, inst.outcomes) for _ in E]
    merged = len(zs) > len(inst)  # only coarse graining merges, to real outcomes
    pairs = Observable.__new__(Observable)._build(  # A was checked when built
        range(len(zs)) if merged else inst.outcomes, A)
    out = {"type": "instrument", "family": "holevo",
           "observable": encode_observable(pairs),
           "states": [{"type": "density", "matrix": m}
                      for m in _encode_stack(alphas)]}
    if merged:
        out["map"] = {str(j): z for j, z in enumerate(zs)}
    return out


def decode_instrument(obj, field: str = "instrument", *,
                      tol_lin: float = TOL_LIN,
                      tol_psd: float = TOL_PSD) -> Instrument:
    kind = _expect(obj, "type", field)
    if kind != "instrument":
        raise ParseError(f"expected 'instrument', got {kind!r}",
                         field=f"{field}.type")
    family = _expect(obj, "family", field)
    if family == "trivial":
        dim, where = require_dim(_dim(obj, field), f"{field}.dim"), f"{field}.omega"
        omega = {float(x) if isinstance(x, float) else x: p for x, p in  # plain floats
                 decode_function_map(_expect(obj, "omega", field), where).items()}
        return _located(where, trivial_instrument, omega, dim, tol_lin=tol_lin)
    if family in ("holevo", "lueders"):
        A = decode_observable(_expect(obj, "observable", field),
                              f"{field}.observable",
                              tol_lin=tol_lin, tol_psd=tol_psd)
        if family == "lueders":
            return lueders_instrument(A)
        raw_states = _list(_expect(obj, "states", field), f"{field}.states")
        alphas = [decode_state(s, f"{field}.states[{i}]",
                               tol_lin=tol_lin, tol_psd=tol_psd)
                  for i, s in enumerate(raw_states)]
        inst = _located(field, holevo_instrument, A, alphas)
        if "map" in obj:  # pairs keyed by index, merged as the API merges them
            f = _outcome_map(obj["map"], f"{field}.map")
            inst = _located(f"{field}.map", inst.coarse_grain, f)
        return inst
    if family == "kraus":
        raw_outs = _list(_expect(obj, "outcomes", field), f"{field}.outcomes")
        raw_kraus = _list(_expect(obj, "kraus", field), f"{field}.kraus")
        kraus = [_matrix_stack(_list(ops, f"{field}.kraus[{i}]"),
                               f"{field}.kraus[{i}]")
                 for i, ops in enumerate(raw_kraus)]
        outcomes = [x if isinstance(x, str) else _real(x, f"{field}.outcomes[{i}]")
                    for i, x in enumerate(raw_outs)]
        return _located(field, Instrument, outcomes, kraus,
                        tol_lin=tol_lin, tol_psd=tol_psd)
    raise ParseError(f"unknown family {family!r}", field=f"{field}.family")


def encode_report(rep: UncertaintyReport) -> dict:
    """Every field of the report, plus the schema version."""
    return {"schema": SCHEMA_VERSION, **vars(rep)}


def canonical_json(obj, compact: bool = False) -> str:
    """Deterministic strict JSON (RFC 8259): sorted keys, fixed separators,
    and every non-finite float, which RFC 8259 cannot write, as ``null``."""
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    try:  # finite output, the usual case, is written in one pass
        return json.dumps(obj, sort_keys=True, allow_nan=False, **layout)
    except ValueError:  # read back with null, in the order first written
        nulled = json.loads(json.dumps(obj, sort_keys=True),
                            parse_constant=lambda _: None)
        return json.dumps(nulled, allow_nan=False, **layout)


def load_json_file(path: str):
    """The JSON document in a UTF-8 text file of at most ``MAX_FILE_BYTES``;
    a file that cannot be read or parsed is a ``ParseError`` naming the path."""
    try:
        with open(path, "rb") as fh:  # read(n) allocates n bytes first, so
            data = fh.read(_FIRST_READ)  # a small file takes a small read
            if len(data) == _FIRST_READ:
                data += fh.read(MAX_FILE_BYTES + 1 - _FIRST_READ)
        if len(data) <= MAX_FILE_BYTES:
            return json.loads(data.decode("utf-8"))
    except FileNotFoundError:
        raise ParseError("file not found", field=path) from None
    except OSError as exc:  # a directory, no permission, ...
        raise ParseError(f"cannot read: {exc.strerror}", field=path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}", field=path) from None
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, arrays nested too deeply, or an integer
        # literal above Python's digit limit
        raise ParseError(f"cannot parse: {exc}", field=path) from None
    raise ParseError(f"cannot read: larger than {MAX_FILE_BYTES} bytes", field=path)
