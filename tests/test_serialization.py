"""JSON round trips and schema diagnostics."""

import json

import numpy as np
import pytest

from qobs import serialization as ser
from qobs.errors import (MissingLabelError, NotAnEffectError, ParseError,
                         TraceNotOneError, UnknownOutcomeError, ValidationError)
from qobs.instruments import (Instrument, holevo_instrument, lueders_instrument,
                              sequential_product, trivial_instrument)
from qobs.observables import Observable, is_real
from qobs.qubit import noisy_spin
from qobs.sampling import (ginibre, haar_unitary, random_density, random_instrument,
                           random_observable, random_probability_vector)
from qobs.statistics import uncertainty_report

from conftest import assert_same_parts, max_abs_diff, per_outcome


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
        with pytest.raises(TraceNotOneError) as err:
            ser.decode_state(bad)
        assert err.value.field == "state"

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
        with pytest.raises(MissingLabelError):
            ser.decode_instrument(missing)
        bad = json.loads(json.dumps(enc))
        bad["observable"]["effects"][0]["re"][0][0] = 2.0
        with pytest.raises(NotAnEffectError) as info:
            ser.decode_instrument(bad)
        assert info.value.field == "instrument.observable.effects[0]"
        with pytest.raises(ParseError) as info:
            ser.decode_instrument(dict(enc, map={"0": "x", "1": 0, "2": 0}))
        assert info.value.field == "instrument.map.0"
        with pytest.raises(UnknownOutcomeError) as info:
            ser.decode_instrument(dict(enc, map={**enc["map"], "typo": 0}))
        assert info.value.field == "instrument.map.typo"

    @pytest.mark.parametrize("key", ["7", "7.50", "1e0x"])
    def test_unknown_map_key_is_named_as_written(self, rng, key):
        inst = random_instrument(rng, 2, "holevo", n_outcomes=3)
        enc = ser.encode_instrument(inst.coarse_grain(lambda x: 0.0))
        with pytest.raises(UnknownOutcomeError) as info:
            ser.decode_instrument(dict(enc, map={**enc["map"], key: 0}))
        assert info.value.field == f"instrument.map.{key}"
        written = repr(key) if key == "1e0x" else key  # a label, or a number
        assert str(info.value) == f"coarse-grained value for {written}, not an outcome"

    def test_trivial_outcomes_are_plain_floats(self):
        inst = ser.decode_instrument({"type": "instrument", "family": "trivial",
                                      "dim": 2, "omega": {"7.50": 0.5, "1": 0.5}})
        assert [(type(x), x) for x in inst.outcomes] == [(float, 7.5), (float, 1.0)]

    def test_constructor_diagnostics_name_the_json_path(self, rng):
        A = random_observable(rng, 2, 3)
        states = [ser.encode_state(random_density(rng, 2)) for _ in range(3)]
        states[2]["matrix"]["re"][0][0] += 0.5  # trace 1.5
        with pytest.raises(TraceNotOneError) as info:
            ser.decode_instrument({"type": "instrument", "family": "holevo",
                                   "observable": ser.encode_observable(A),
                                   "states": states})
        assert info.value.field == "instrument.states[2]"
        bad = ser.encode_observable(A)
        bad["effects"][1]["re"][0][0] = 2.0
        with pytest.raises(NotAnEffectError) as info:
            ser.decode_observable(bad)
        assert info.value.field == "observable.effects[1]"
        kraus = {"type": "instrument", "family": "kraus", "outcomes": [0, 1],
                 "kraus": [[ser.encode_matrix(np.eye(2))],
                           [ser.encode_matrix(2 * np.eye(2))]]}
        with pytest.raises(ValidationError) as info:
            ser.decode_instrument(kraus)
        assert info.value.field == "instrument.kraus[1]"

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
