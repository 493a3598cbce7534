"""JSON round trips and schema diagnostics."""

import json

import numpy as np
import pytest

from qobs import serialization as ser
from qobs.errors import ParseError, TraceNotOneError
from qobs.instruments import lueders_instrument
from qobs.observables import Observable
from qobs.qubit import noisy_spin
from qobs.sampling import ginibre, random_density, random_instrument, random_observable
from qobs.statistics import uncertainty_report

from conftest import max_abs_diff


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
        with pytest.raises(TraceNotOneError):
            ser.decode_state(bad)

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

    def test_unknown_family(self):
        with pytest.raises(ParseError):
            ser.decode_instrument({"type": "instrument", "family": "weird"})


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
