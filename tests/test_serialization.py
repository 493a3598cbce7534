"""JSON round trips and schema diagnostics."""

import json
import tracemalloc

import numpy as np
import pytest

from qobs import serialization as ser
from qobs.errors import ParseError, QobsError, ValidationError
from qobs.instruments import (Instrument, holevo_instrument, lueders_instrument,
                              sequential_product, trivial_instrument)
from qobs.linalg import psd_sqrt
from qobs.observables import Observable, is_real
from qobs.qubit import noisy_spin
from qobs.sampling import (ginibre, haar_unitary, random_density,
                           random_observable, random_probability_vector)
from qobs.statistics import uncertainty_report

from conftest import (assert_same_parts, decode_matrices_loop, encode_matrix_loop,
                      encode_stack_loop, max_abs_diff, per_outcome,
                      random_instrument)


class TestMatrix:
    def test_round_trip_complex(self, rng):
        M = ginibre(rng, 3, 3)
        out = ser.decode_matrix(ser.encode_matrix(M))
        assert max_abs_diff(out, M) == 0.0

    def test_omitted_imaginary_part_means_zero(self):
        M = ser.decode_matrix({"dim": 2, "re": [[1, 2], [3, 4]]})
        assert np.all(M.imag == 0.0)

    def test_real_matrix_encodes_without_im(self):
        enc = ser.encode_matrix(np.eye(2))
        assert "im" not in enc

    def test_missing_field_diagnostics(self):
        with pytest.raises(ParseError) as err:
            ser.decode_matrix({"dim": 2}, "m")
        assert err.value.field == "m.re"
        with pytest.raises(ParseError) as err:
            ser.decode_matrix({"re": [[1]]}, "m")
        assert err.value.field == "m.dim"

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            ser.decode_matrix({"dim": 2, "re": [[1, 2, 3], [4, 5, 6]]})

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            ser.decode_matrix({"dim": 1, "re": [[float("nan")]]})

    def test_integer_beyond_float_range_is_a_parse_error(self):
        # json.loads keeps a 400-digit integer exact; float() of it overflows.
        huge = json.loads("1" + "0" * 400)
        with pytest.raises(ParseError):
            ser.decode_matrix({"dim": 1, "re": [[huge]]})
        with pytest.raises(ParseError):
            ser.decode_function_map({"1": huge})


class TestState:
    def test_density_round_trip(self, rng):
        rho = random_density(rng, 3)
        out = ser.decode_state(ser.encode_state(rho))
        assert max_abs_diff(out.matrix, rho.matrix) == 0.0

    def test_bloch_form(self):
        rho = ser.decode_state({"type": "bloch", "r": [0.0, 0.0, 1.0]})
        assert max_abs_diff(rho.matrix, np.diag([1.0, 0.0])) == 0.0

    def test_invalid_state_is_rejected_on_load(self):
        bad = {"type": "density",
               "matrix": {"dim": 2, "re": [[0.6, 0.0], [0.0, 0.6]]}}
        with pytest.raises(ValidationError) as err:
            ser.decode_state(bad)
        assert (err.value.invariant, err.value.field) == ("unit-trace", "state")

    def test_unknown_type(self):
        with pytest.raises(ParseError) as err:
            ser.decode_state({"type": "ket", "r": [1, 0, 0]})
        assert "type" in err.value.field


class TestObservable:
    def test_real_round_trip(self, rng):
        A = random_observable(rng, 3, 3)
        out = ser.decode_observable(ser.encode_observable(A))
        assert isinstance(out, Observable)
        assert out.outcomes == A.outcomes
        for E, F in zip(out.effects, A.effects):
            assert max_abs_diff(E, F) == 0.0

    def test_general_round_trip(self):
        G = Observable(["a", "b"], [0.3 * np.eye(2), 0.7 * np.eye(2)])
        out = ser.decode_observable(ser.encode_observable(G))
        assert out.outcomes is None
        assert out.keys == ("a", "b")

    def test_pair_labels_flatten_to_strings(self):
        G = Observable([(1.0, "x"), (2.0, "y")],
                       [0.5 * np.eye(2), 0.5 * np.eye(2)])
        enc = ser.encode_observable(G)
        assert enc["labels"] == ["1.0,x", "2.0,y"]

    def test_needs_outcomes_or_labels(self):
        with pytest.raises(ParseError):
            ser.decode_observable({"type": "observable",
                                   "effects": [{"dim": 1, "re": [[1.0]]}]})


class TestInstrument:
    def test_trivial_decode(self):
        inst = ser.decode_instrument({
            "type": "instrument", "family": "trivial", "dim": 2,
            "omega": {"1": 0.25, "-1": 0.75}})
        assert set(inst.outcomes) == {1.0, -1.0}

    def test_lueders_decode(self):
        A = noisy_spin(0.5, "x")
        obj = {"type": "instrument", "family": "lueders",
               "observable": ser.encode_observable(A)}
        inst = ser.decode_instrument(obj)
        assert inst.outcomes == A.outcomes

    def test_holevo_decode(self, rng):
        A = random_observable(rng, 2, 2)
        alphas = [random_density(rng, 2) for _ in range(2)]
        obj = {"type": "instrument", "family": "holevo",
               "observable": ser.encode_observable(A),
               "states": [ser.encode_state(a) for a in alphas]}
        inst = ser.decode_instrument(obj)
        rho = random_density(rng, 2)
        assert max_abs_diff(inst.apply(inst.outcomes[0], rho),
                            np.trace(rho.matrix @ A.effects[0]).real
                            * alphas[0].matrix) < 1e-12

    def test_kraus_round_trip(self, rng):
        inst = random_instrument(rng, 2, "lueders")
        out = ser.decode_instrument(ser.encode_instrument(inst))
        assert out.outcomes == inst.outcomes
        rho = random_density(rng, 2)
        for x in inst.outcomes:
            assert max_abs_diff(out.apply(x, rho), inst.apply(x, rho)) == 0.0

    def test_kraus_document_of_a_holevo_instrument_still_decodes(self, rng):
        """Holevo instruments used to be written as the Kraus form of their
        pairs; such a file still decodes, to a Kraus-slice instrument that
        acts as the pairs do."""
        inst = random_instrument(rng, 2, "holevo", n_outcomes=3)
        doc = {"type": "instrument", "family": "kraus",
               "outcomes": list(inst.outcomes),
               "kraus": [[ser.encode_matrix(K) for K in ops]
                         for ops in per_outcome(inst)]}
        out = ser.decode_instrument(json.loads(ser.canonical_json(doc)))
        assert out.outcomes == inst.outcomes
        for (K,), L in zip(out._parts, per_outcome(inst)):
            assert np.array_equal(K, L)
        rho, C = random_density(rng, 2), ginibre(rng, 2, 2)
        for x in inst.outcomes:
            assert max_abs_diff(out.apply(x, rho), inst.apply(x, rho)) < 1e-12
            assert max_abs_diff(out.dual_apply(x, C), inst.dual_apply(x, C)) < 1e-12
        assert max_abs_diff(out.channel(rho).matrix,
                            inst.channel(rho).matrix) < 1e-12

    def test_kraus_documents_are_pinned(self):
        """Kraus-slice instruments keep the ``kraus`` document, byte for
        byte."""
        trivial = trivial_instrument({1.0: 0.25, -1.0: 0.75}, 2)
        assert ser.canonical_json(ser.encode_instrument(trivial), compact=True) == (
            '{"family":"kraus","kraus":[[{"dim":2,"re":[[0.5,0.0],[0.0,0.5]]}],'
            '[{"dim":2,"re":[[0.8660254037844386,0.0],[0.0,0.8660254037844386]]}]],'
            '"outcomes":[1.0,-1.0],"type":"instrument"}')
        A = Observable([-1.0, 1.0], [np.diag([0.36, 1.0]), np.diag([0.64, 0.0])])
        assert ser.canonical_json(ser.encode_instrument(lueders_instrument(A)),
                                  compact=True) == (
            '{"family":"kraus","kraus":[[{"dim":2,"re":[[0.6,0.0],[0.0,1.0]]}],'
            '[{"dim":2,"re":[[0.8,0.0],[0.0,0.0]]}]],"outcomes":[-1.0,1.0],'
            '"type":"instrument"}')

    def test_holevo_pairs_are_written_as_held(self, rng):
        A = random_observable(rng, 2, 3)
        alphas = [random_density(rng, 2) for _ in range(3)]
        inst = holevo_instrument(A, alphas)
        assert ser.encode_instrument(inst) == {
            "type": "instrument", "family": "holevo",
            "observable": ser.encode_observable(A),
            "states": [ser.encode_state(a) for a in alphas]}
        f = {x: float(i > 0) for i, x in enumerate(A.outcomes)}
        enc = ser.encode_instrument(inst.coarse_grain(f))
        assert enc["observable"]["outcomes"] == [0.0, 1.0, 2.0]
        assert enc["observable"]["effects"] == ser.encode_observable(A)["effects"]
        assert enc["map"] == {"0": 0.0, "1": 1.0, "2": 1.0}

    def test_merged_pairs_are_checked_as_pairs(self, rng):
        """A ``map`` document validates its pairs as a ``holevo`` one does,
        and the map must cover every pair."""
        inst = random_instrument(rng, 2, "holevo", n_outcomes=3)
        enc = ser.encode_instrument(inst.coarse_grain(lambda x: 0.0))
        missing = dict(enc, map={"0": 0.0, "1": 0.0})
        with pytest.raises(ValidationError) as info:
            ser.decode_instrument(missing)
        assert info.value.invariant == "total-function"
        bad = json.loads(json.dumps(enc))
        bad["observable"]["effects"][0]["re"][0][0] = 2.0
        with pytest.raises(ValidationError) as info:
            ser.decode_instrument(bad)
        assert (info.value.invariant, info.value.field) == (
            "effect-upper-bound", "instrument.observable.effects[0]")
        with pytest.raises(ParseError) as info:
            ser.decode_instrument(dict(enc, map={"0": "x", "1": 0, "2": 0}))
        assert info.value.field == "instrument.map.0"
        with pytest.raises(ValidationError) as info:
            ser.decode_instrument(dict(enc, map={**enc["map"], "typo": 0}))
        assert (info.value.invariant, info.value.field) == (
            "known-outcome", "instrument.map.typo")

    @pytest.mark.parametrize("key", ["7", "7.50", "1e0x"])
    def test_unknown_map_key_is_named_as_written(self, rng, key):
        inst = random_instrument(rng, 2, "holevo", n_outcomes=3)
        enc = ser.encode_instrument(inst.coarse_grain(lambda x: 0.0))
        with pytest.raises(ValidationError) as info:
            ser.decode_instrument(dict(enc, map={**enc["map"], key: 0}))
        assert (info.value.invariant, info.value.field) == (
            "known-outcome", f"instrument.map.{key}")
        assert str(info.value) == (f"instrument.map.{key}: coarse-grained "
                                   "value for a key that is not an outcome")

    def test_trivial_outcomes_are_plain_floats(self):
        inst = ser.decode_instrument({"type": "instrument", "family": "trivial",
                                      "dim": 2, "omega": {"7.50": 0.5, "1": 0.5}})
        assert [(type(x), x) for x in inst.outcomes] == [(float, 7.5), (float, 1.0)]

    def test_constructor_diagnostics_name_the_json_path(self, rng):
        A = random_observable(rng, 2, 3)
        states = [ser.encode_state(random_density(rng, 2)) for _ in range(3)]
        states[2]["matrix"]["re"][0][0] += 0.5  # trace 1.5
        with pytest.raises(ValidationError) as info:
            ser.decode_instrument({"type": "instrument", "family": "holevo",
                                   "observable": ser.encode_observable(A),
                                   "states": states})
        assert (info.value.invariant, info.value.field) == (
            "unit-trace", "instrument.states[2]")
        bad = ser.encode_observable(A)
        bad["effects"][1]["re"][0][0] = 2.0
        with pytest.raises(ValidationError) as info:
            ser.decode_observable(bad)
        assert (info.value.invariant, info.value.field) == (
            "effect-upper-bound", "observable.effects[1]")
        kraus = {"type": "instrument", "family": "kraus", "outcomes": [0, 1],
                 "kraus": [[ser.encode_matrix(np.eye(2))],
                           [ser.encode_matrix(2 * np.eye(2))]]}
        with pytest.raises(ValidationError) as info:
            ser.decode_instrument(kraus)
        assert info.value.field == "instrument.kraus[1]"

    @pytest.mark.parametrize("decode, doc, field", [
        (ser.decode_state, {"type": "density", "matrix": ser.encode_matrix(
            np.eye(2) / 2)}, "tol_lin"),
        (ser.decode_state, {"type": "bloch", "r": [0.0, 0.0, 1.0]}, "tol_lin"),
        (ser.decode_observable, ser.encode_observable(noisy_spin(0.5)), "tol_psd"),
        (ser.decode_instrument, {"type": "instrument", "family": "trivial",
                                 "dim": 2, "omega": {"1": 1.0}}, "tol_lin"),
        (ser.decode_instrument, {"type": "instrument", "family": "kraus",
                                 "outcomes": [0.0], "kraus": [[ser.encode_matrix(
                                     np.eye(2))]]}, "tol_psd"),
    ], ids=["density", "bloch", "observable", "trivial", "kraus"])
    def test_a_bad_tolerance_names_the_parameter_not_a_json_path(self, decode,
                                                                   doc, field):
        with pytest.raises(ValidationError) as info:
            decode(doc, **{field: -1.0})
        assert (info.value.invariant, info.value.field) == ("tolerance-range", field)

    def test_trivial_dim_above_max_dim(self):
        with pytest.raises(ValidationError) as info:
            ser.decode_instrument({"type": "instrument", "family": "trivial",
                                   "dim": 65, "omega": {"1": 1.0}})
        assert info.value.invariant == "dim-range"
        assert info.value.field == "instrument.dim"

    def test_unknown_family(self):
        with pytest.raises(ParseError):
            ser.decode_instrument({"type": "instrument", "family": "weird"})

    def test_bool_outcomes_are_labels_as_for_observables(self):
        """Bools are not real outcomes: the instrument encodes them as the
        labels an observable with the same keys encodes."""
        inst = trivial_instrument({True: 0.25, False: 0.75}, 2)
        obs = Observable([True, False], [np.eye(2) / 4, 3 * np.eye(2) / 4])
        enc = ser.encode_instrument(inst)
        assert enc["outcomes"] == ser.encode_observable(obs)["labels"] == [
            "True", "False"]
        assert ser.decode_instrument(enc).outcomes == ("True", "False")


class TestFunctionMapAndReport:
    def test_numeric_keys_recovered(self):
        fmap = ser.decode_function_map({"1.5": 2, "-1": 0, "label": 3})
        assert fmap[1.5] == 2.0 and fmap[-1.0] == 0.0 and fmap["label"] == 3.0

    def test_report_fields(self, rng):
        rho = random_density(rng, 2)
        A, B = noisy_spin(0.5, "x"), noisy_spin(0.5, "y")
        enc = ser.encode_report(uncertainty_report(rho, A, B))
        assert enc["schema"] == 1
        assert set(enc) == {"schema", "commutator_term", "covariance_sq",
                            "correlation_sq", "variance_product",
                            "equation_residual", "inequality_slack", "tol"}

    def test_canonical_json_is_sorted_and_stable(self):
        obj = {"b": 1.0, "a": {"z": [1, 2], "y": 0.1}}
        text = ser.canonical_json(obj, compact=True)
        assert text == '{"a":{"y":0.1,"z":[1,2]},"b":1.0}'
        assert json.loads(text) == obj

    def test_canonical_json_writes_non_finite_numbers_as_null(self):
        inf, nan = float("inf"), float("nan")
        obj = {"b": [inf, {"d": -inf, "c": 0.1 + 0.2}], "a": nan,
               "e": (1, np.float64(-inf), "Infinity"), "f": {10.0: inf, 9.0: 1e-300}}
        assert ser.canonical_json(obj, compact=True) == (
            '{"a":null,"b":[null,{"c":0.30000000000000004,"d":null}],'
            '"e":[1,null,"Infinity"],"f":{"9.0":1e-300,"10.0":null}}')
        assert json.loads(ser.canonical_json(obj)) == json.loads(
            ser.canonical_json(obj, compact=True))

    def test_canonical_json_of_finite_objects_is_the_plain_dump(self, rng,
                                                                 monkeypatch):
        """Finite output takes one strict pass and never the read-back."""
        rep = uncertainty_report(random_density(rng, 3), random_observable(rng, 3, 2),
                                 random_observable(rng, 3, 3))
        objs = [ser.encode_report(rep), {"t": (0.1, np.float64(2.5)),
                                         "m": {7.0: 1, 3.0: [-0.0, 1e308]}},
                ser.encode_instrument(random_instrument(rng, 2, "holevo"))]
        expected = [(json.dumps(obj, sort_keys=True, separators=(",", ":")),
                     json.dumps(obj, sort_keys=True, indent=2)) for obj in objs]
        monkeypatch.setattr(ser.json, "loads", None)
        assert [(ser.canonical_json(obj, compact=True), ser.canonical_json(obj))
                for obj in objs] == expected


def _keyed_observable(rng, keys: str, d: int) -> Observable:
    if keys == "pair":
        return sequential_product(lueders_instrument(random_observable(rng, d, 2)),
                                  random_observable(rng, d, 2))
    A = random_observable(rng, d, 3)
    return A if keys == "real" else Observable(["a", "1", "c"], A.effects)


def _build(rng, builder: str, A: Observable) -> Instrument:
    d, n = A.dim, len(A)
    if builder == "trivial":
        omega = dict(zip(A.keys, random_probability_vector(rng, n)))
        return trivial_instrument(omega, d)
    if builder == "lueders":
        return lueders_instrument(A)
    if builder == "holevo":
        return holevo_instrument(A, [random_density(rng, d) for _ in range(n)])
    V = haar_unitary(rng, n * d)[:, :d]  # an isometry: its blocks sum to I
    return Instrument(A.keys, [[V[i * d:(i + 1) * d]] for i in range(n)])


_GRAINS = {  # coarse grainings: (index, outcome) -> real value
    "identity": lambda i, x: x if is_real(x) else float(i),  # labels: injective
    "two-valued": lambda i, x: float(i % 2),
    "constant": lambda i, x: 1.0,
}


@pytest.mark.parametrize("keys", ["real", "string", "pair"])
@pytest.mark.parametrize("grain", [None, *_GRAINS])
@pytest.mark.parametrize("builder", ["trivial", "lueders", "holevo", "kraus"])
def test_every_instrument_round_trips_exactly(rng, builder, grain, keys):
    """Every instrument the API builds decodes from its JSON document with
    the outcomes it was written with and every array of its maps equal."""
    inst = _build(rng, builder, _keyed_observable(rng, keys, 3))
    if grain is not None:
        inst = inst.coarse_grain({x: _GRAINS[grain](i, x)
                                  for i, x in enumerate(inst.outcomes)})
    back = ser.decode_instrument(json.loads(ser.canonical_json(
        ser.encode_instrument(inst))))
    assert back.outcomes == tuple(x if is_real(x) else ser.label_to_str(x)
                                  for x in inst.outcomes)
    assert_same_parts(back, inst)
    assert np.array_equal(back._duals, inst._duals)


# The stacked codec against its per-matrix forms (``conftest``): the same
# bits, signed zeros included, and the same diagnostics.

def _real_effect_observable(rng, d: int) -> Observable:
    """Two complex effects and one real one, 0.5 I, which encodes without
    ``im``."""
    half = 0.5 * random_observable(rng, d, 2).effects
    return Observable([-1.0, 0.5, 2.0], [*half, 0.5 * np.eye(d)])


def _kraus_instrument(rng, d: int) -> Instrument:
    """Two complex Kraus operators for each of two outcomes and one real
    operator, I / sqrt(2), for the third."""
    A = _real_effect_observable(rng, d)
    Us = [haar_unitary(rng, d) for _ in range(2)]
    kraus = [[U @ psd_sqrt(E) / np.sqrt(2.0) for U in Us] for E in A.effects[:2]]
    return Instrument(A.keys, [*kraus, [np.eye(d) / np.sqrt(2.0)]])


def _negate_zeros(docs: list) -> list:
    """The documents with every +0.0 of their grids written as -0.0."""
    return [{**doc, **{part: [[-0.0 if x == 0.0 else x for x in row]
                              for row in doc[part]]
                       for part in ("re", "im") if part in doc}}
            for doc in docs]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", range(1, 7))
def test_matrix_stack_gives_the_per_entry_bits(rng, d):
    """Seeded grids with -0.0 in ``re`` and ``im``, real and complex entries
    mixed, decode to the bits of one ``decode_matrix`` per entry."""
    M = ginibre(rng, 5, d * d).reshape(5, d, d)
    M[1] = M[1].real
    M[3] = M[3].real
    M.real[0, 0] = 0.0
    M.imag[2, 0] = 0.0
    zeros = encode_stack_loop(M)
    zeros[4]["im"] = np.zeros((d, d)).tolist()  # written, though all zero
    for raw in (zeros, _negate_zeros(zeros)):
        assert [("im" in doc) for doc in raw][:2] == [True, False]
        assert _same_bits(ser._matrix_stack(raw, "f"),
                          np.array(decode_matrices_loop(raw, "f")))


@pytest.mark.parametrize("d", range(1, 7))
def test_encode_stack_gives_the_per_matrix_documents(rng, d):
    """``-0.0`` prints as written, and an all-zero imaginary part, signed
    zeros included, is left out as for one matrix."""
    M = ginibre(rng, 4, d * d).reshape(4, d, d)
    M[1] = M[1].real
    M[2] = M[2].real + (-0.0j)
    M[:, -1, :] = -0.0
    assert json.dumps(ser._encode_stack(M)) == json.dumps(encode_stack_loop(M))
    assert [json.dumps(ser.encode_matrix(E)) for E in M] == \
        [json.dumps(encode_matrix_loop(E)) for E in M]


def _documents(rng, d: int) -> dict:
    """An observable, a ``kraus`` and a Holevo instrument, each with its
    document."""
    A = _real_effect_observable(rng, d)
    kraus = _kraus_instrument(rng, d)
    holevo = holevo_instrument(A, [random_density(rng, d) for _ in range(3)])
    return {"observable": (A, ser.encode_observable(A)),
            "kraus": (kraus, ser.encode_instrument(kraus)),
            "holevo": (holevo, ser.encode_instrument(holevo))}


@pytest.mark.parametrize("d", range(1, 7))
def test_codec_matches_its_per_matrix_forms(rng, monkeypatch, d):
    """Observables, ``kraus`` and Holevo documents encode to the per-matrix
    documents and decode, also with every zero written as -0.0, to the bits
    of the per-entry decoder."""
    docs = _documents(rng, d)
    A, doc = docs["observable"]
    assert json.dumps(doc["effects"]) == json.dumps(encode_stack_loop(A.effects))
    inst, doc = docs["kraus"]
    assert json.dumps(doc["kraus"]) == json.dumps(
        [encode_stack_loop(p[0]) for p in inst._parts])
    inst, doc = docs["holevo"]
    alphas = np.concatenate([p[1] for p in inst._parts])
    assert json.dumps([s["matrix"] for s in doc["states"]]) == json.dumps(
        encode_stack_loop(alphas))

    variants = {name: [doc] for name, (_, doc) in docs.items()}
    variants["observable"].append({**variants["observable"][0], "effects":
                                   _negate_zeros(docs["observable"][1]["effects"])})
    variants["kraus"].append({**variants["kraus"][0], "kraus": [
        _negate_zeros(ops) for ops in docs["kraus"][1]["kraus"]]})

    def decode_all():
        out = [ser.decode_observable(doc).effects
               for doc in variants["observable"]]
        for doc in variants["kraus"] + variants["holevo"]:
            out += [x for p in ser.decode_instrument(doc)._parts for x in p]
        return out

    shipped = decode_all()
    monkeypatch.setattr(ser, "_matrix_stack", decode_matrices_loop)
    reference = decode_all()
    assert len(shipped) == len(reference)
    assert all(_same_bits(x, y) for x, y in zip(shipped, reference))


def _with_entry(docs: list, k: int, entry) -> list:
    return [*docs[:k], entry, *docs[k + 1:]]


_GOOD = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}
_BAD_ENTRIES = {
    "bool-dim": {"dim": True, "re": [[0.5]]},
    "dim-mismatch": {"dim": 3, "re": np.eye(3).tolist()},
    "missing-re": {"dim": 2, "im": [[0.0, 0.0], [0.0, 0.0]]},
    "nan-re": {"dim": 2, "re": [[float("nan"), 0.0], [0.0, 0.5]]},
    "inf-re": {"dim": 2, "re": [[float("inf"), 0.0], [0.0, 0.5]]},
    "nan-im": {**_GOOD, "im": [[0.0, float("nan")], [0.0, 0.0]]},
    "inf-im": {**_GOOD, "im": [[0.0, 0.0], [float("-inf"), 0.0]]},
    "ragged": {"dim": 2, "re": [[0.5, 0.0], [0.5]]},
    "null-im": {**_GOOD, "im": None},
    "non-object": 5,
    "huge-dim": {"dim": 10 ** 9, "re": [[1.0]]},
}


def _malformed_documents():
    for name, entry in _BAD_ENTRIES.items():
        for k in (0, 1):
            effects = _with_entry([_GOOD, _GOOD], k, entry)
            yield f"observable-{name}-at-{k}", {
                "type": "observable", "outcomes": [0.0, 1.0], "effects": effects}
            yield f"kraus-{name}-at-{k}", {
                "type": "instrument", "family": "kraus", "outcomes": [0.0, 1.0],
                "kraus": [[_GOOD], effects]}
    one, true = {"dim": 1, "re": [[0.5]]}, {"dim": True, "re": [[0.5]]}
    for k in (0, 1):  # True == 1, but a bool is not a dim
        yield f"observable-bool-dim-1-at-{k}", {
            "type": "observable", "outcomes": [0.0, 1.0],
            "effects": _with_entry([one, one], k, true)}
    yield "observable-all-huge-dim", {
        "type": "observable", "outcomes": [0.0, 1.0],
        "effects": [_BAD_ENTRIES["huge-dim"]] * 2}
    yield "kraus-empty-list", {
        "type": "instrument", "family": "kraus", "outcomes": [0.0, 1.0],
        "kraus": [[_GOOD, _GOOD], []]}


def _error(doc) -> tuple:
    decode = (ser.decode_observable if doc["type"] == "observable"
              else ser.decode_instrument)
    with pytest.raises(QobsError) as err:
        decode(json.loads(json.dumps(doc)))
    e = err.value
    return type(e), e.field, str(e), e.invariant, e.violation


@pytest.mark.parametrize("name, doc", list(_malformed_documents()),
                         ids=[name for name, _ in _malformed_documents()])
def test_malformed_lists_keep_their_per_entry_diagnostics(monkeypatch, name, doc):
    """Type, field, message, invariant and violation are those of the
    per-entry decoder, also where the constructor raises."""
    shipped = _error(doc)
    monkeypatch.setattr(ser, "_matrix_stack", decode_matrices_loop)
    assert shipped == _error(doc)


def test_a_huge_dim_allocates_nothing_of_its_size():
    """A ``dim`` that its grid does not back is a prompt ParseError, before
    any array of that size: nothing near d x d bytes is traced."""
    doc = {"type": "observable", "outcomes": [0.0, 1.0],
           "effects": [{"dim": 4096, "re": [[0.5]]}] * 2}
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            ser.decode_observable(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.field == "observable.effects[0].re"
    assert peak < 1 << 20


def test_well_formed_lists_make_no_per_entry_decode(rng, monkeypatch):
    """Observable effects and ``kraus`` lists decode as one stack, without
    a ``decode_matrix`` call per entry; a malformed list still makes them."""
    calls = []
    decode = ser.decode_matrix
    monkeypatch.setattr(ser, "decode_matrix",
                        lambda *a, **kw: calls.append(a) or decode(*a, **kw))
    docs = _documents(rng, 3)
    ser.decode_observable(json.loads(json.dumps(docs["observable"][1])))
    ser.decode_instrument(json.loads(json.dumps(docs["kraus"][1])))
    assert calls == []
    with pytest.raises(ParseError):
        ser.decode_observable(dict(docs["observable"][1], effects=[_GOOD, 5]))
    assert len(calls) == 2
