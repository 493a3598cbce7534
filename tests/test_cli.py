"""CLI subcommands: happy paths, diagnostics, determinism."""

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qobs
from qobs import demos, fuzz, serialization as ser, statistics as stats
from qobs.cli import _build_parser, _decode_operand, main
from qobs.instruments import Instrument, holevo_instrument, lueders_instrument
from qobs.linalg import MAX_OUTCOMES, psd_sqrt
from qobs.qubit import noisy_spin
from qobs.sampling import (
    haar_unitary,
    random_density,
    random_hermitian,
    random_observable,
)
from qobs.states import DensityOperator

from conftest import (HUGE_SPECTRUM_EFFECTS, HUGE_SPECTRUM_STATE, long_options,
                      random_instrument, subparsers)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def strict_loads(text):
    """json.loads that refuses NaN and +-Infinity, which RFC 8259 has not."""
    return json.loads(text, parse_constant=_refuse)


def run_cli(capsys, *argv) -> tuple[int, dict | list | None]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (strict_loads(out) if out.strip().startswith(("{", "[")) else out)


# The tolerances a fuzz summary records for a run at the defaults.
_DEFAULT_TOLERANCES = {key: getattr(fuzz.RunConfig(), field)
                       for key, field in fuzz._TOLERANCES}


def _summary(worst) -> dict:
    """The least document that ``replay`` reads: ``worst`` and the
    tolerances to replay it at."""
    return {"tolerances": _DEFAULT_TOLERANCES, "worst": worst}


@pytest.fixture
def files(tmp_path, rng):
    """A directory of valid input files of every kind."""
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    write("state.json", {"type": "bloch", "r": [0.0, 0.0, 1.0]})
    write("rho.json", ser.encode_state(random_density(rng, 2)))
    write("obs_a.json", ser.encode_observable(noisy_spin(1.0, "x")))
    write("obs_b.json", ser.encode_observable(noisy_spin(1.0, "y")))
    write("obs_rand.json", ser.encode_observable(random_observable(rng, 2, 3)))
    write("matrix.json", ser.encode_matrix(np.diag([1.0, -1.0])))
    write("inst_trivial.json", {"type": "instrument", "family": "trivial",
                                "dim": 2, "omega": {"1": 0.25, "-1": 0.75}})
    write("inst_lueders.json", {
        "type": "instrument", "family": "lueders",
        "observable": ser.encode_observable(noisy_spin(0.5, "x"))})
    write("fmap.json", {"1": 1.0, "-1": 1.0})
    paths["summary.json"] = str(tmp_path / "summary.json")
    (tmp_path / "summary.json").write_text(ser.canonical_json(
        fuzz.run_fuzz(fuzz.RunConfig(trials=1, dims=(2,)))))
    paths["dir"] = str(tmp_path)
    return paths


class TestUncertainty:
    def test_report_on_files(self, capsys, files):
        code, out = run_cli(capsys, "uncertainty", "--state", files["state.json"],
                            "--obs-a", files["obs_a.json"],
                            "--obs-b", files["obs_b.json"])
        assert code == 0
        assert out["schema"] == 1
        assert out["commutator_term"] == pytest.approx(1.0, abs=1e-12)
        assert out["inequality_slack"] == pytest.approx(0.0, abs=1e-12)
        assert out["equality"] is True

    def test_same_observable_kills_commutator_term(self, capsys, files):
        code, out = run_cli(capsys, "uncertainty", "--state", files["rho.json"],
                            "--obs-a", files["obs_a.json"],
                            "--obs-b", files["obs_a.json"])
        assert code == 0
        assert out["commutator_term"] == 0.0

    def test_bare_hermitian_matrix_accepted(self, capsys, files):
        code, out = run_cli(capsys, "uncertainty", "--state", files["rho.json"],
                            "--obs-a", files["matrix.json"],
                            "--obs-b", files["matrix.json"])
        assert code == 0

    def test_matrix_accepted_at_tol_lin_is_not_checked_again(
            self, capsys, files, tmp_path):
        """A bare matrix off Hermitian by 1e-7 passes at --tol-lin 1e-6 and
        is reported as its Hermitian part."""
        M = np.array([[0.5, 0.2 + 1e-7], [0.2, -0.3]], dtype=complex)
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(ser.encode_matrix(M)))
        code, out = run_cli(capsys, "uncertainty", "--tol-lin", "1e-6",
                            "--state", files["rho.json"], "--obs-a", str(path),
                            "--obs-b", files["matrix.json"])
        assert code == 0
        with open(files["rho.json"]) as fh:
            rho = ser.decode_state(json.load(fh))
        rep = stats.uncertainty_report(rho, (M + M.conj().T) / 2.0,
                                       np.diag([1.0, -1.0]))
        expected = ser.encode_report(rep)
        assert {key: out[key] for key in expected} == expected
        code, out = run_cli(capsys, "uncertainty", "--state", files["rho.json"],
                            "--obs-a", str(path), "--obs-b", files["matrix.json"])
        assert code == 2
        assert out["error"]["field"] == "obs-a"

    def test_exactly_hermitian_matrix_operand_is_kept_bit_for_bit(self, rng):
        H = random_hermitian(rng, 4)
        out = _decode_operand(ser.encode_matrix(H), "obs-a", 1e-9, 1e-8)
        assert repr(out.tolist()) == repr(H.tolist())

    def test_huge_matrix_operand_keeps_its_finite_entries(self):
        """The Hermitian part M/2 + M*/2 of entries of 1e308 is finite, where
        (M + M*)/2 overflowed to inf and NaN."""
        doc = {"dim": 2, "re": [[1e308, 1e308], [1e308, 0.0]]}
        out = _decode_operand(doc, "obs-a", 1e-9, 1e-8)
        assert out.tolist() == [[1e308, 1e308], [1e308, 0.0]]

    def test_malformed_json_exits_2_with_field(self, capsys, files, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"type": "density", ')
        code, out = run_cli(capsys, "uncertainty", "--state", str(bad),
                            "--obs-a", files["obs_a.json"],
                            "--obs-b", files["obs_b.json"])
        assert code == 2
        assert out["error"]["type"] == "ParseError"
        assert out["error"]["message"].startswith(f"{bad}: invalid JSON at line 1")

    def test_invalid_state_diagnostic_names_everything(self, capsys, files,
                                                       tmp_path):
        bad = tmp_path / "badstate.json"
        bad.write_text(json.dumps({
            "type": "density",
            "matrix": {"dim": 2, "re": [[0.6, 0.0], [0.0, 0.6]]}}))
        code, out = run_cli(capsys, "uncertainty", "--state", str(bad),
                            "--obs-a", files["obs_a.json"],
                            "--obs-b", files["obs_b.json"])
        assert code == 2
        err = out["error"]
        assert set(err) == {"type", "file", "invariant", "field", "violation",
                            "bound", "message"}
        assert err["file"] == str(bad)
        assert err["invariant"] == "unit-trace"
        assert err["violation"] == pytest.approx(0.2)
        assert err["bound"] == 1e-9  # --tol-lin
        assert err["field"] == "state"

    def test_error_after_every_load_names_no_file(self, capsys, files, tmp_path,
                                                  rng):
        """Two valid files of different dims: the mismatch belongs to no file."""
        big = tmp_path / "obs3.json"
        big.write_text(json.dumps(ser.encode_observable(random_observable(rng, 3, 2))))
        code, out = run_cli(capsys, "uncertainty", "--state", files["rho.json"],
                            "--obs-a", files["obs_a.json"], "--obs-b", str(big),
                            "--json")
        assert code == 2
        assert (out["error"]["invariant"], out["error"]["file"]) == (
            "matching-dims", None)

    @pytest.fixture
    def huge(self, tmp_path):
        """I/2 and the Hermitian operands diag(1e200, -1e200) and
        [[0, 1e200], [1e200, 0]], whose products overflow."""
        paths = {}
        for name, doc in (
                ("state", {"type": "bloch", "r": [0.0, 0.0, 0.0]}),
                ("diag", ser.encode_matrix(np.diag([1e200, -1e200]))),
                ("off", ser.encode_matrix(np.array([[0.0, 1e200], [1e200, 0.0]])))):
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        return paths

    def test_infinite_terms_are_null(self, capsys, huge):
        code, out = run_cli(capsys, "uncertainty", "--state", huge["state"],
                            "--obs-a", huge["diag"], "--obs-b", huge["off"],
                            "--json")
        assert code == 0
        assert (out["variance_product"], out["inequality_slack"]) == (None, None)
        assert out["equation_residual"] == 0.0

    def test_nan_identity_is_a_failure(self, capsys, huge):
        """Var(A)^2 and |Cor|^2 are both inf, so the equation residual is NaN:
        a failed identity, not a report of NaN terms."""
        code, out = run_cli(capsys, "uncertainty", "--state", huge["state"],
                            "--obs-a", huge["diag"], "--obs-b", huge["diag"],
                            "--json")
        assert code == 2
        error = out["error"]
        assert (error["type"], error["invariant"], error["violation"]) == (
            "InternalConsistencyError", "uncertainty-equation", None)

    @pytest.mark.parametrize("r, invariant", [
        ([0.3, 0.4, 0.2], "uncertainty-equation"),
        ([0.6, 0.0, 0.8], "uncertainty-inequality"),
    ])
    def test_rounding_residual_at_zero_tolerance_names_its_identity(
            self, capsys, files, tmp_path, r, invariant):
        """At --tol-stat 0 the last-bit residual of an identity is an
        internal-consistency failure that carries its invariant and size."""
        state = tmp_path / "r.json"
        state.write_text(json.dumps({"type": "bloch", "r": r}))
        code, out = run_cli(capsys, "uncertainty", "--state", str(state),
                            "--obs-a", files["obs_a.json"],
                            "--obs-b", files["obs_b.json"],
                            "--tol-stat", "0", "--json")
        assert code == 2
        err = out["error"]
        assert err["type"] == "InternalConsistencyError"
        assert err["invariant"] == invariant
        assert 0.0 < err["violation"] < 1e-12
        detail = {
            "uncertainty-equation": "uncertainty equation residual exceeds its bound",
            "uncertainty-inequality": "uncertainty inequality violated"}[invariant]
        assert err["message"] == \
            f"{detail} (violation {err['violation']:.3e}, bound 0.000e+00)"


# The flags each demo example reads: the parameters of demos.demo_<name>.
_DEMO_FLAGS_READ = {
    "example1": set(),
    "example2": {"dim", "seed"},
    "example3": {"dim", "seed"},
    "example4": {"mu", "bloch"},
    **{f"example{i}": {"dim", "seed", "outcomes"} for i in (5, 6, 7)},
}
_DEMO_VALUES = {"dim": "2", "seed": "3", "outcomes": "3", "mu": "0.9",
                "bloch": "0.1,0.2,0.3"}
_DEMO_FLAGS_UNREAD = [(name, flag) for name, read in _DEMO_FLAGS_READ.items()
                      for flag in _DEMO_VALUES if flag not in read]


class TestDemo:
    @pytest.mark.parametrize("name", [f"example{i}" for i in range(1, 8)])
    def test_all_demos_pass(self, capsys, name):
        code, out = run_cli(capsys, "demo", name)
        assert code == 0
        assert out["pass"] is True

    def test_example4_meets_tight_tolerance(self, capsys):
        code, out = run_cli(capsys, "demo", "example4",
                            "--mu", "0.5", "--bloch", "0.3,0.4,0.2")
        assert code == 0
        assert out["max_delta"] <= 1e-12
        assert len([c for c in out["checks"]]) >= 8

    def test_unknown_demo_rejected_by_parser(self, capsys):
        code, out = run_cli(capsys, "demo", "example9")
        assert code == 2
        assert out["error"]["type"] == "ParseError"
        assert "invalid choice: 'example9'" in out["error"]["message"]

    @pytest.mark.parametrize("name, digest", [
        ("example1", "62a1e3f30bd0bcc34b7b3540e598596c2961e463eced3ca85bd78e947866b7a4"),
        ("example2", "c3726ff6cc83c6cbb93af9ab191b2d9ad833d6ee27a8915ca268f4034ea060e7"),
        ("example3", "ce59f010b5a7dff62adc67a7a56e9010c2dda79a179e23a8f2ef31c4118aae3b"),
        ("example4", "d8df9833cc6155616cecd96a43abf29db09d79d5c06642a21f8709e15e72774f"),
        ("example5", "410294f693fbb192c6c85f211fa6a022469525dcf6a53d34d61d4c0f4117f6b5"),
        ("example6", "6cde6eb1cbb5d9ea4c9d676bb93947e82e54132e9d41649de2e407a8d8abf5b0"),
        ("example7", "21ae9b48180e093766718b51d37fb5ccce78462ad2a43276f1aa1ff2009d2a69"),
    ])
    def test_stdout_at_the_defaults_is_pinned(self, capsys, name, digest):
        """The SHA-256 of ``demo NAME --json`` at the CLI's defaults (seed
        42).  It is the same with ``OPENBLAS_NUM_THREADS=1`` and with the
        default thread setting."""
        assert main(["demo", name, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_each_example_parser_takes_its_functions_parameters(self):
        examples = subparsers(subparsers(_build_parser())["demo"])
        assert list(examples) == list(demos.DEMO_NAMES)
        for name, p in examples.items():
            params = inspect.signature(getattr(demos, f"demo_{name}")).parameters
            assert long_options(p) - {"help"} == {*params, "json"} \
                == _DEMO_FLAGS_READ[name] | {"json"}
        assert sum(map(len, _DEMO_FLAGS_READ.values())) == 15  # of 7 x 5 slots
        assert len(_DEMO_FLAGS_UNREAD) == 20

    def test_each_example_reads_each_of_its_flags(self, capsys):
        given = {"dim": 2, "seed": 3, "outcomes": 3, "mu": 0.9,
                 "bloch": [0.1, 0.2, 0.3]}
        for name, read in _DEMO_FLAGS_READ.items():
            argv = [arg for flag in sorted(read)
                    for arg in (f"--{flag}", _DEMO_VALUES[flag])]
            code, out = run_cli(capsys, "demo", name, *argv, "--json")
            assert code == 0 and out["pass"] is True
            assert out["params"] == {flag: given[flag] for flag in read}

    @pytest.mark.parametrize("name, flag", _DEMO_FLAGS_UNREAD)
    def test_a_flag_the_example_does_not_read_is_a_usage_error(
            self, capsys, name, flag):
        value = _DEMO_VALUES[flag]
        code, out = run_cli(capsys, "demo", name, f"--{flag}", value, "--json")
        assert code == 2
        assert (out["error"]["type"], out["error"]["message"]) == (
            "ParseError", f"unrecognized arguments: --{flag} {value}")

    @pytest.mark.parametrize("name, shown", [
        ("example4", {"mu": "0.5", "bloch": "0.3,0.4,0.2"}),
        ("example6", {"dim": "3", "outcomes": "2"}),
    ])
    def test_help_shows_each_own_flags_default(self, capsys, name, shown):
        """The defaults of the example's function, a tuple written as the
        flag takes it."""
        with pytest.raises(SystemExit) as info:
            main(["demo", name, "--help"])
        assert info.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for flag, default in shown.items():
            line, = (line for line in lines
                     if line.lstrip().startswith(f"--{flag} "))
            assert line.endswith(f" default: {default}")

    def test_json_before_the_example_name_is_compact(self, capsys):
        assert main(["demo", "--json", "example1"]) == 0
        before = capsys.readouterr().out
        assert main(["demo", "example1", "--json"]) == 0
        assert before == capsys.readouterr().out
        assert before.count("\n") == 1


class TestFuzz:
    def test_clean_run_and_determinism(self, capsys):
        args = ["fuzz", "--trials", "12", "--dims", "2,3", "--seed", "7",
                "--json"]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        summary = strict_loads(out1)
        assert summary["violations"] == 0
        assert summary["schema"] == 1
        assert "PCG64" in summary["prng"]

    def test_replay_reproduces_residual(self, capsys, tmp_path):
        code = main(["fuzz", "--trials", "6", "--dims", "2", "--seed", "3",
                     "--output", str(tmp_path / "summary.json")])
        assert code == 0
        summary = strict_loads((tmp_path / "summary.json").read_text())
        dump = tmp_path / "worst.json"
        dump.write_text(json.dumps({"tolerances": summary["tolerances"],
                                    "worst": summary["worst"]}))
        code, out = run_cli(capsys, "replay", str(dump))
        assert (code, out["violations"]) == (0, 0)
        assert repr(out["residual"]) == repr(summary["worst"]["residual"])

    def test_replay_of_a_summary_reproduces_its_worst(self, capsys, tmp_path):
        summary_path = str(tmp_path / "s.json")
        main(["fuzz", "--trials", "30", "--seed", "42", "--output", summary_path])
        worst = strict_loads((tmp_path / "s.json").read_text())["worst"]
        code, out = run_cli(capsys, "replay", summary_path, "--json")
        assert code == 0
        assert out["property"] == worst["property"]
        assert repr(out["residual"]) == repr(worst["residual"])
        assert repr(out["ratio"]) == repr(worst["ratio"])

    @pytest.mark.parametrize("run", [
        ["--trials", "30", "--seed", "5", "--dims", "2..4",
         "--cluster-tol", "0.05"],  # the worst's ratio is 2.19e6
        ["--trials", "9", "--seed", "42", "--dims", "2..4",
         "--tol-lin", "1e-17"],  # the worst is an error entry
    ], ids=["cluster-tol", "tol-lin"])
    def test_replay_of_a_summary_uses_the_tolerances_it_records(
            self, capsys, tmp_path, run):
        """Each worst is a violation, so its replay counts one, as
        ``run_fuzz`` counts, and exits 1, as ``fuzz`` does."""
        summary_path = str(tmp_path / "s.json")
        main(["fuzz", *run, "--output", summary_path])
        worst = strict_loads((tmp_path / "s.json").read_text())["worst"]
        code, out = run_cli(capsys, "replay", summary_path, "--json")
        assert (code, out["violations"]) == (1, 1)
        assert out["property"] == worst["property"]
        assert repr(out.get("ratio")) == repr(worst["ratio"])
        assert out.get("error") == worst.get("error")
        assert ("error" in out) == (run[-1] == "1e-17")

    def test_replay_honours_output(self, capsys, tmp_path):
        summary = str(tmp_path / "s.json")
        main(["fuzz", "--trials", "6", "--dims", "2", "--seed", "3",
              "--output", summary])
        assert main(["replay", summary, "--json"]) == 0
        printed = capsys.readouterr().out
        written = tmp_path / "replay.json"
        assert main(["replay", summary, "--output", str(written),
                     "--json"]) == 0
        assert capsys.readouterr().out == ""
        assert written.read_text() == printed

    def test_replay_into_its_own_file_writes_the_replay(self, capsys,
                                                          tmp_path):
        summary = str(tmp_path / "s.json")
        main(["fuzz", "--trials", "6", "--dims", "2", "--seed", "3",
              "--output", summary])
        assert main(["replay", summary, "--json"]) == 0
        printed = capsys.readouterr().out
        assert main(["replay", summary, "--output", summary,
                     "--json"]) == 0
        assert (tmp_path / "s.json").read_text() == printed

    def test_failed_run_leaves_the_output_file_as_it_was(self, capsys,
                                                           tmp_path):
        out = tmp_path / "out.json"
        out.write_bytes(b'{"kept": true}\n')
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        for source in (bad, out):  # a broken dump, then PATH itself
            code, diagnostic = run_cli(capsys, "replay", str(source),
                                       "--output", str(out), "--json")
            assert (code, diagnostic["error"]["file"]) == (2, str(source))
            assert out.read_bytes() == b'{"kept": true}\n'

    def test_failed_run_leaves_no_output_file_it_created(self, capsys,
                                                           tmp_path):
        new = tmp_path / "new.json"
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, diagnostic = run_cli(capsys, "replay", str(bad),
                                   "--output", str(new), "--json")
        assert (code, diagnostic["error"]["file"]) == (2, str(bad))
        assert not new.exists()
        assert main(["fuzz", "--trials", "1", "--dims", "2",
                     "--output", str(new)]) == 0
        assert json.loads(new.read_text())["trials"] == 1

    def test_output_to_a_device_is_written(self, capsys):
        """A path that is no regular file, such as the null device, is
        written without being emptied first."""
        assert main(["fuzz", "--trials", "2", "--dims", "2",
                     "--output", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("replay", [False, True])
    def test_unwritable_output_exits_2_before_the_run(self, capsys, tmp_path,
                                                       monkeypatch, replay):
        summary = tmp_path / "s.json"
        main(["fuzz", "--trials", "1", "--dims", "2", "--output", str(summary)])

        def refuse(*args):
            raise AssertionError("ran before the output was opened")

        monkeypatch.setattr(fuzz, "run_fuzz", refuse)
        monkeypatch.setattr(fuzz, "replay_instance", refuse)
        source = ["replay", str(summary)] if replay else ["fuzz", "--trials", "1"]
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            code = main([*source, "--output", str(target), "--json"])
            captured = capsys.readouterr()
            assert (code, captured.err, captured.out.count("\n")) == (2, "", 1)
            error = strict_loads(captured.out)["error"]
            assert (error["type"], error["field"], error["invariant"]) == (
                "ValidationError", "--output", "writable-output")
            assert error["message"].startswith(f"--output: cannot write {target}: ")

    @pytest.mark.parametrize("dump, field", [
        (_summary({"property": "nope", "instance": {}}), "dump.property"),
        (_summary([1, 2]), "dump"),
        (_summary({"property": ["eigen.reconstruction"], "instance": {}}),
         "dump.property"),
        ({"worst": {"property": "nope"}}, "dump.property"),
        (_summary({"property": "eigen.reconstruction"}), "dump.instance"),
        (_summary({"property": "eigen.reconstruction", "instance": [1]}),
         "dump.instance"),
        (_summary({"property": "eigen.reconstruction",
                   "instance": {"dim": 2}}), "dump.instance.family"),
        (_summary({"property": "eigen.reconstruction", "instance": {
            "dim": "x", "family": "trivial", "omega": {"1": 1.0}}}),
         "dump.instance.dim"),
        (_summary({"property": "eigen.reconstruction",
                   "instance": {"dim": 2, "family": "bogus"}}),
         "dump.instance.family"),
        (_summary({"property": "eigen.reconstruction", "instance": {
            "dim": 100000, "family": "trivial", "omega": {"1": 1.0}}}),
         "dump.instance.dim"),
        ({"worst": {"property": "eigen.reconstruction"}}, "dump.tolerances"),
        ({"worst": {"property": "eigen.reconstruction"},
          "tolerances": {"lin": 1e-9, "psd": -1.0}}, "dump.tolerances.psd"),
        ({"worst": {"property": "eigen.reconstruction"},
          "tolerances": {"lin": 1e-9, "psd": 1e-8, "stat": 1e-9}},
         "dump.tolerances.cluster"),
        ({"worst": {"property": "eigen.reconstruction"},
          "tolerances": {"lin": "1e-9"}}, "dump.tolerances.lin"),
        ({"worst": {"property": "eigen.reconstruction"},
          "tolerances": {"lin": 1e-9, "psd": 1e-8, "stat": None,
                         "cluster": None}}, "dump.tolerances.stat"),
        ({"tolerances": _DEFAULT_TOLERANCES}, "dump.worst"),
    ])
    def test_malformed_replay_exits_2_naming_the_field(self, capsys, tmp_path,
                                                        dump, field):
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump))
        code, out = run_cli(capsys, "replay", str(path), "--json")
        assert code == 2
        assert out["error"]["field"] == field
        assert out["error"]["file"] == str(path)

    @pytest.mark.parametrize("run", [
        ["--trials", "200", "--seed", "42"],
        ["--trials", "45", "--seed", "3", "--dims", "1..9"],
        ["--trials", "30", "--seed", "5", "--dims", "2..4",
         "--cluster-tol", "0.05"],
        ["--trials", "200", "--seed", "42", "--tol-lin", "1e-17"],
        ["--trials", "3", "--tol-lin", "0"],
        ["--trials", "3", "--dims", "1", "--tol-lin", "0"],
        ["--trials", "3", "--seed", "42"],
    ], ids=["default", "dims-1-9", "cluster-tol", "tol-lin", "tol-lin-0",
            "dim-1-tol-lin-0", "bare-dump-tol-lin"])
    def test_summary_and_its_replay_are_strict_json(self, capsys, tmp_path, run):
        """RFC 8259 has no Infinity or NaN: an infinite ratio (a bound of 0)
        or residual is written null, in the summary and in its replay."""
        path = tmp_path / "s.json"
        main(["fuzz", *run, "--output", str(path)])
        summary = strict_loads(path.read_text())
        code = main(["replay", str(path), "--json"])
        replay = strict_loads(capsys.readouterr().out)
        assert replay.get("ratio") == summary["worst"]["ratio"]
        if run[-2:] == ["--tol-lin", "0"]:  # eigen.projections' bound is 0
            # At d=1 its residual is 0 too, and 0 over 0 is a ratio of 0.
            assert summary["properties"]["eigen.projections"]["max_ratio"] == (
                0.0 if "--dims" in run else None)
        if run[-4:] == ["--dims", "1", "--tol-lin", "0"]:  # worst is r > 0 over 0
            worst = summary["worst"]
            assert worst["residual"] > worst["bound"] == 0.0
            assert (code, replay["violations"], replay["ratio"]) == (1, 1, None)
        if run == ["--trials", "3", "--seed", "42"]:
            # Trial 1 (d=3, holevo) in a summary at tolerance lin 1e-17: its
            # A_comm is not commutative, and the residual is inf.
            rng = np.random.default_rng(np.random.SeedSequence(42).spawn(2)[1])
            bare = tmp_path / "bare.json"
            bare.write_text(json.dumps({
                "tolerances": {**summary["tolerances"], "lin": 1e-17},
                "worst": {"property": "conjugate.commutative_identity",
                          "instance": fuzz.encode_instance(
                              fuzz.build_instance(rng, 3, "holevo"))}}))
            code, out = run_cli(capsys, "replay", str(bare), "--json")
            assert (code, out["residual"], out["ratio"], out["bound"]) == (
                1, None, None, 1e-17)

    def test_absurd_tolerance_forces_violation_exit(self, capsys):
        code = main(["fuzz", "--trials", "3", "--dims", "2", "--seed", "1",
                     "--tol-lin", "1e-30", "--tol-stat", "1e-30",
                     "--json"])
        out = strict_loads(capsys.readouterr().out)
        assert code == 1
        assert out["violations"] > 0

    def test_single_trial_runs_each_property_once(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--trials", "1", "--dims", "3",
                            "--seed", "11", "--json")
        assert code == 0
        assert all(p["trials"] == 1 for p in out["properties"].values())

    def test_bad_run_config_is_a_clean_diagnostic(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--trials", "0", "--json")
        assert code == 2
        assert out["error"]["invariant"] == "positive-trials"

    def test_defaults_are_those_of_run_config(self, capsys, monkeypatch):
        configs = []

        def run(config):
            configs.append(config)
            return {"violations": 0}

        monkeypatch.setattr(fuzz, "run_fuzz", run)
        assert main(["fuzz", "--json"]) == 0
        assert configs == [fuzz.RunConfig()]

    def test_replay_parser_takes_only_the_file_output_and_json(self):
        p = subparsers(_build_parser())["replay"]
        assert {a.dest for a in p._actions} - {"help"} == {
            "file", "output", "json"}


class TestSweep:
    def test_zero_mu_rows_vanish(self, capsys):
        code, out = run_cli(capsys, "sweep-example4", "--mu-grid", "0",
                            "--samples", "5", "--surface", "2", "--seed", "9")
        assert code == 0
        for row in out["rows"]:
            for key in ("commutator_term", "covariance_term",
                        "correlation_term", "variance_term", "slack"):
                assert row[key] == 0.0
        assert out["pass"] is True

    def test_surface_vectors_reach_equality(self, capsys):
        code, out = run_cli(capsys, "sweep-example4", "--mu-grid", "1",
                            "--samples", "4", "--surface", "4", "--seed", "2")
        assert code == 0
        assert all(row["equality"] for row in out["rows"])

    def test_csv_format(self, capsys):
        code = main(["sweep-example4", "--mu-grid", "0.5", "--samples", "2",
                     "--surface", "0", "--seed", "4", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:4] == ["mu", "r1", "r2", "r3"]
        assert len(out.splitlines()) == 3

    def test_csv_cells_equal_json_values(self, capsys):
        argv = ["sweep-example4", "--mu-grid", "0,0.3,0.9,1", "--samples", "6",
                "--surface", "2", "--seed", "7"]
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert main([*argv, "--format", "csv"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        header = header.split(",")
        terms = ("commutator_term", "covariance_term", "correlation_term",
                 "variance_term", "slack")
        assert header == ["mu", "r1", "r2", "r3",
                          *(k for t in terms for k in (t, f"{t}_delta")),
                          "equality"]
        assert len(lines) == len(out["rows"]) == 24
        for line, row in zip(lines, out["rows"]):
            assert sorted(header) == list(row)  # canonical JSON sorts keys
            cells = [{"True": True, "False": False}.get(c, c)
                     for c in line.split(",")]
            cells = [c if isinstance(c, bool) else float(c) for c in cells]
            assert repr(cells) == repr([row[key] for key in header])

    @pytest.mark.parametrize("argv", [
        ["--samples", "1000000000000"],
        ["--samples", "50001", "--mu-grid", "0,1"],  # 100,002 rows
    ])
    def test_row_count_above_the_cap_is_rejected_before_any_draw(
            self, capsys, monkeypatch, argv):
        monkeypatch.setattr("qobs.sampling.random_bloch_vector", None)  # no draw
        code, out = run_cli(capsys, "sweep-example4", *argv, "--json")
        assert code == 2
        assert out["error"]["invariant"] == "samples-range"
        assert out["error"]["field"] == "--samples"

    @pytest.mark.parametrize("mu", ["1.5", "nan"])
    def test_mu_outside_zero_one_is_mu_range(self, capsys, mu):
        code, out = run_cli(capsys, "sweep-example4", "--mu-grid", mu,
                            "--samples", "2", "--json")
        assert code == 2
        assert out["error"]["invariant"] == "mu-range"

    def test_equatorial_vectors_zero_the_commutator_column(self, rng):
        from qobs.demos import sweep_noisy_spin
        from qobs.sampling import random_bloch_vector
        vectors = []
        for _ in range(5):
            r = random_bloch_vector(rng)
            vectors.append((r[0], r[1], 0.0))
        out = sweep_noisy_spin([0.25, 0.5, 1.0], vectors)
        assert all(row["commutator_term"] == pytest.approx(0.0, abs=1e-14)
                   for row in out["rows"])


class TestObservableCommands:
    def test_sharp_of_noisy_spin(self, capsys, files):
        code, out = run_cli(capsys, "sharp", "--obs", files["obs_a.json"])
        assert code == 0
        assert out["outcomes"] == [-1.0, 1.0]

    def test_conjugate_round_trip(self, capsys, files):
        code, out = run_cli(capsys, "conjugate", "--obs", files["obs_rand.json"])
        assert code == 0
        again = ser.decode_observable(out)
        assert len(again) == 3

    def test_coarse_grain(self, capsys, files):
        code, out = run_cli(capsys, "coarse-grain", "--obs", files["obs_a.json"],
                            "--map", files["fmap.json"])
        assert code == 0
        assert out["outcomes"] == [1.0]

    def test_sequential_and_conditioned(self, capsys, files):
        code, out = run_cli(capsys, "sequential",
                            "--instrument", files["inst_trivial.json"],
                            "--obs", files["obs_b.json"])
        assert code == 0
        assert len(out["labels"]) == 4
        code, out = run_cli(capsys, "conditioned",
                            "--instrument", files["inst_trivial.json"],
                            "--obs", files["obs_b.json"])
        assert code == 0
        # Trivial instrument: conditioning is invisible.
        with open(files["obs_b.json"]) as fh:
            original = json.load(fh)
        assert out["outcomes"] == sorted(original["outcomes"])

    def test_coarse_grain_map_key_naming_no_outcome(self, capsys, files,
                                                    tmp_path):
        fmap = tmp_path / "typo.json"
        fmap.write_text(json.dumps({"1": 1.0, "-1": 1.0, "typo": 5}))
        code, out = run_cli(capsys, "coarse-grain", "--obs", files["obs_a.json"],
                            "--map", str(fmap))
        assert code == 2
        error = out["error"]
        assert (error["type"], error["invariant"], error["field"]) == (
            "ValidationError", "known-outcome", "typo")

    def test_numeric_map_key_naming_no_outcome_is_named_as_written(
            self, capsys, files, tmp_path):
        fmap = tmp_path / "extra.json"
        fmap.write_text(json.dumps({"1": 1.0, "-1": 1.0, "7": 0}))
        code, out = run_cli(capsys, "coarse-grain", "--obs", files["obs_a.json"],
                            "--map", str(fmap))
        assert code == 2
        error = out["error"]
        assert (error["type"], error["invariant"], error["field"]) == (
            "ValidationError", "known-outcome", "7")

    def test_lueders_instrument_file(self, capsys, files):
        code, out = run_cli(capsys, "sequential",
                            "--instrument", files["inst_lueders.json"],
                            "--obs", files["obs_b.json"])
        assert code == 0


class TestValidate:
    @pytest.mark.parametrize("key", ["state.json", "rho.json", "obs_a.json",
                                     "inst_trivial.json", "inst_lueders.json",
                                     "matrix.json"])
    def test_valid_files(self, capsys, files, key):
        code, out = run_cli(capsys, "validate", files[key])
        assert code == 0
        assert out["valid"] is True

    def test_invalid_effect_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "badobs.json"
        bad.write_text(json.dumps({
            "type": "observable", "outcomes": [1, -1],
            "effects": [{"dim": 2, "re": [[2, 0], [0, 2]]},
                        {"dim": 2, "re": [[-1, 0], [0, -1]]}]}))
        code, out = run_cli(capsys, "validate", str(bad))
        assert code == 2
        err = out["error"]
        assert err["type"] == "ValidationError"
        assert err["file"] == str(bad)
        assert err["invariant"] == "effect-upper-bound"
        assert err["violation"] == pytest.approx(1.0)
        assert err["field"] == "observable.effects[0]"

    def test_lueders_file_validates_at_its_observables_tol_psd(self, capsys,
                                                              tmp_path):
        # An effect eigenvalue of -5e-7 passes --tol-psd 1e-6; the Lueders
        # square root must not check it again at the default 1e-8.
        A = {"type": "observable", "outcomes": [0, 1],
             "effects": [{"dim": 2, "re": [[-5e-7, 0], [0, 0.5]]},
                         {"dim": 2, "re": [[1 + 5e-7, 0], [0, 0.5]]}]}
        for name, doc in (("obs", A), ("inst", {"type": "instrument",
                                                "family": "lueders",
                                                "observable": A})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            code, out = run_cli(capsys, "validate", str(path),
                                "--tol-psd", "1e-6")
            assert (code, out["summary"]) == (0, {"dim": 2, "outcomes": 2})

    _HALF = {"dim": 2, "re": [[0.5 ** 0.5, 0], [0, 0.5 ** 0.5]]}

    @pytest.mark.parametrize("doc, field, invariant, violation", [
        ({"type": "instrument", "family": "kraus", "outcomes": [math.nan, 1.0],
          "kraus": [[_HALF], [_HALF]]}, "instrument", "finite-outcome", None),
        ({"type": "instrument", "family": "trivial", "dim": 2,
          "omega": {"NaN": 0.5, "-1": 0.5}}, "instrument.omega",
         "finite-outcome", None),
        ({"type": "instrument", "family": "trivial", "dim": 2,
          "omega": {"1": math.nan, "-1": 1.0}}, "instrument.omega",
         "nonnegative-weights", None),
        # finite entries of 1e308: a finite Hermitian part and spectrum
        ({"type": "density", "matrix": ser.encode_matrix(HUGE_SPECTRUM_STATE)},
         "state", "psd", 1e308),
        ({"type": "observable", "outcomes": [0.0, 1.0],
          "effects": [ser.encode_matrix(E) for E in HUGE_SPECTRUM_EFFECTS]},
         "observable.effects[0]", "effect-lower-bound", 1e308),
    ], ids=["kraus-outcome", "trivial-key", "trivial-weight", "state-spectrum",
            "effect-spectrum"])
    def test_nan_outcome_or_weight_is_one_diagnostic(self, capsys, tmp_path,
                                                     doc, field, invariant,
                                                     violation):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # Python's json writes NaN
        assert main(["validate", str(path), "--json"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        error = strict_loads(lines[0])["error"]
        assert (error["field"], error["invariant"], error["violation"]) == (
            field, invariant, violation)

    @pytest.mark.parametrize("weight, invariant", [
        (math.inf, "unit-total"), (-math.inf, "nonnegative-weights")])
    def test_infinite_violation_is_null(self, capsys, tmp_path, weight,
                                        invariant):
        """JSON has no infinity: a violation of +-inf is written as null, as
        a NaN weight's is, and the diagnostic parses as strict JSON."""
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"type": "instrument", "family": "trivial",
                                    "dim": 2, "omega": {"1": weight, "-1": 0.0}}))
        assert main(["validate", str(path), "--json"]) == 2
        error = strict_loads(capsys.readouterr().out)["error"]
        assert (error["invariant"], error["violation"]) == (invariant, None)

    def test_unrecognized_payload(self, capsys, tmp_path):
        f = tmp_path / "what.json"
        f.write_text('{"hello": 1}')
        code, out = run_cli(capsys, "validate", str(f))
        assert code == 2

    def test_missing_file_is_a_parse_error_naming_the_path(self, capsys,
                                                           tmp_path):
        missing = str(tmp_path / "absent.json")
        code, out = run_cli(capsys, "validate", missing, "--json")
        assert code == 2
        error = out["error"]
        assert (error["type"], error["field"], error["file"]) == (
            "ParseError", missing, missing)

    def test_invalid_json_names_the_file(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text('{"type": ')
        code, out = run_cli(capsys, "validate", str(f))
        assert code == 2
        assert out["error"]["file"] == str(f)


_UNREADABLE_FILES = {  # name: (write the path, start of the message)
    "utf-16": (lambda p: p.write_bytes(b"\xff\xfe{}"), "cannot parse"),
    "directory": (lambda p: p.mkdir(), "cannot read"),
    "deep-nesting": (lambda p: p.write_text("[" * 100000 + "]" * 100000),
                     "cannot parse"),
    "5000-digits": (lambda p: p.write_text("1" * 5000), "cannot parse"),
    "utf-8-bom": (lambda p: p.write_bytes(b"\xef\xbb\xbf{}"), "invalid JSON"),
}


@pytest.mark.parametrize("name", _UNREADABLE_FILES)
@pytest.mark.parametrize("command", [["validate"], ["replay"]],
                         ids=["validate", "replay"])
def test_unreadable_file_is_one_parse_error_naming_the_path(capsys, tmp_path,
                                                            name, command):
    """A file that is not UTF-8 JSON text, or cannot be read, or nests or
    writes digits beyond what Python parses: exit 2 and one strict JSON
    diagnostic naming the path, no traceback."""
    write, message = _UNREADABLE_FILES[name]
    path = tmp_path / f"{name}.json"
    write(path)
    assert main([*command, str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    error = strict_loads(captured.out)["error"]
    assert (error["type"], error["field"], error["file"]) == (
        "ParseError", str(path), str(path))
    assert error["message"].startswith(f"{path}: {message}")


@pytest.fixture(scope="module")
def capped_files(tmp_path_factory):
    """For validate and for replay: a valid document padded with
    spaces to exactly MAX_FILE_BYTES, and the same with one space more."""
    rng = np.random.default_rng(5)
    docs = {"validate": {"type": "bloch", "r": [0.0, 0.6, 0.8]},
            "replay": _summary({"property": "eigen.reconstruction",
                                "instance": fuzz.encode_instance(
                                    fuzz.build_instance(rng, 2, "trivial"))})}
    paths = {}
    for command, doc in docs.items():
        text = json.dumps(doc).encode("utf-8")
        paths[command] = []
        for size in (ser.MAX_FILE_BYTES, ser.MAX_FILE_BYTES + 1):
            path = tmp_path_factory.mktemp(command) / f"{size}.json"
            path.write_bytes(text + b" " * (size - len(text)))
            paths[command].append(str(path))
    return paths


@pytest.mark.parametrize("command", [["validate"], ["replay"]],
                         ids=["validate", "replay"])
def test_input_file_at_the_size_cap_is_read_and_one_byte_more_is_not(
        capsys, capped_files, command):
    at_cap, above = capped_files[command[0]]
    assert main([*command, at_cap, "--json"]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, *command, above, "--json")
    assert code == 2
    error = out["error"]
    assert (error["type"], error["field"], error["file"]) == (
        "ParseError", above, above)
    assert error["message"] == \
        f"{above}: cannot read: larger than {ser.MAX_FILE_BYTES} bytes"


@pytest.mark.parametrize("n_first, readable", [(10, True), (12, False)])
def test_size_cap_bounds_a_sequential_product_at_d64_near_120_outcomes(
        capsys, tmp_path, n_first, readable):
    """The cap holds about 121 complex 64 x 64 effects as the CLI writes
    them (~277 kB each).  Only ``sequential`` writes more outcomes than it
    reads: n_first x 11 of them, 110 read back and 132 refused."""
    rng = np.random.default_rng(8)
    paths = {}
    for name, doc in (
            ("instrument", ser.encode_instrument(
                random_instrument(rng, 64, "trivial", n_first))),
            ("obs", ser.encode_observable(random_observable(rng, 64, 11)))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(ser.canonical_json(doc), encoding="utf-8")
    assert main(["sequential", "--instrument", str(paths["instrument"]),
                 "--obs", str(paths["obs"])]) == 0
    product = tmp_path / "product.json"
    product.write_text(capsys.readouterr().out, encoding="utf-8")
    assert (product.stat().st_size <= ser.MAX_FILE_BYTES) == readable
    code, out = run_cli(capsys, "validate", str(product), "--json")
    if readable:
        assert (code, out["kind"]) == (0, "observable")
    else:
        assert (code, out["error"]["type"]) == (2, "ParseError")


_MALFORMED_FILES = {
    "observable-outcomes": {"type": "observable", "outcomes": ["a", "b"],
                            "effects": [{"dim": 1, "re": [[0.5]]},
                                        {"dim": 1, "re": [[0.5]]}]},
    "bloch-r": {"type": "bloch", "r": ["x", 0, 0]},
    "kraus-outcomes": {"type": "instrument", "family": "kraus",
                       "outcomes": [None],
                       "kraus": [[{"dim": 1, "re": [[1.0]]}]]},
    "kraus-entry": {"type": "instrument", "family": "kraus",
                    "outcomes": [1], "kraus": [5]},
    "density-nonhermitian": {"type": "density", "matrix": {
        "dim": 2, "re": [[1.5, 0.9], [0.0, 0.5]]}},
    "density-negative": {"type": "density", "matrix": {
        "dim": 2, "re": [[1.5, 0.0], [0.0, -0.5]]}},
    "noisy-spin": ser.encode_observable(noisy_spin(0.8, "x")),
    "trivial-huge-dim": {"type": "instrument", "family": "trivial",
                         "dim": 10 ** 50, "omega": {"1": 1.0}},
    "bloch-two": {"type": "bloch", "r": [0.1, 0.2]},
    "observable-no-effects": {"type": "observable", "outcomes": [],
                              "effects": []},
    "empty-map": {},
}

# Sizes that no input array backs, each above the documented d <= 64.
_ABOVE_MAX_DIM = [
    pytest.param(["validate", "trivial-huge-dim"], id="validate-trivial-dim"),
    pytest.param(["fuzz", "--trials", "1", "--dims", "1000000"],
                 id="fuzz-dims-huge"),
    pytest.param(["fuzz", "--trials", "1", "--dims", "2..1000000000000"],
                 id="fuzz-dims-range-huge"),
    pytest.param(["demo", "example2", "--dim", "1000000"], id="demo-dim-huge"),
]

# Outcome counts above MAX_OUTCOMES, checked before any array is allocated.
_ABOVE_MAX_OUTCOMES = [
    pytest.param(["demo", "example5", "--outcomes", "1000000000000"],
                 id="demo-example5-outcomes-huge"),
    *[pytest.param(["demo", name, "--outcomes", str(MAX_OUTCOMES + 1),
                    "--dim", "1"], id=f"demo-{name}-outcomes-above-cap")
      for name in ("example6", "example7")],
]


@pytest.mark.parametrize("argv", [
    ["validate", "observable-outcomes"],
    ["validate", "bloch-r"],
    ["validate", "kraus-outcomes"],
    ["validate", "kraus-entry"],
    ["fuzz", "--dims", "2..x"],
    ["demo", "example4", "--bloch", "a,b,c"],
    ["sweep-example4", "--mu-grid", "x"],
    pytest.param(["validate", "density-nonhermitian", "--tol-lin", "nan"],
                 id="validate-tol-lin-nan"),
    pytest.param(["validate", "density-negative", "--tol-psd", "nan"],
                 id="validate-tol-psd-nan"),
    pytest.param(["sharp", "--obs", "noisy-spin", "--cluster-tol", "nan"],
                 id="sharp-cluster-tol-nan"),
    pytest.param(["sharp", "--obs", "noisy-spin", "--cluster-tol", "-1"],
                 id="sharp-cluster-tol-negative"),
    pytest.param(["demo", "example1", "--tol-stat", "inf"],
                 id="demo-tol-stat-inf"),
    *[pytest.param(["demo", name, "--dim", "-1"], id=f"demo-{name}-dim-negative")
      for name in ("example2", "example3", "example6", "example7")],
    pytest.param(["demo", "example6", "--outcomes", "-1"],
                 id="demo-outcomes-negative"),
    pytest.param(["demo", "example2", "--seed", "-1"], id="demo-seed-negative"),
    pytest.param(["sweep-example4", "--samples", "0", "--format", "csv"],
                 id="sweep-samples-zero-csv"),
    pytest.param(["sweep-example4", "--samples", "-3", "--format", "csv"],
                 id="sweep-samples-negative-csv"),
    pytest.param(["sweep-example4", "--samples", "0"], id="sweep-samples-zero"),
    pytest.param(["sweep-example4", "--surface", "-1"],
                 id="sweep-surface-negative"),
    *_ABOVE_MAX_DIM,
    *_ABOVE_MAX_OUTCOMES,
    pytest.param(["fuzz", "--trials", "1", "--dims=-1000000000000..3"],
                 id="fuzz-dims-range-huge-negative"),
], ids=lambda argv: "-".join(argv[:2]))
def test_malformed_input_exits_2_with_diagnostic(capsys, tmp_path, argv):
    out = _run_malformed(capsys, tmp_path, argv)
    assert isinstance(out["error"], dict)


def _run_malformed(capsys, tmp_path, argv) -> dict:
    def path_of(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_MALFORMED_FILES[name]))
        return str(path)

    argv = [path_of(a) if a in _MALFORMED_FILES else a for a in argv]
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 2
    return out


@pytest.mark.parametrize("argv, error", [
    (["demo", "example4", "--bloch", "0.1,0.2"],
     ("ValidationError", "bloch-shape", "--bloch")),
    (["sweep-example4", "--mu-grid", ","],
     ("ValidationError", "nonempty-grid", "--mu-grid")),
    (["validate", "bloch-two"], ("ParseError", None, "state.r")),
    (["validate", "observable-no-effects"],
     ("ParseError", None, "observable.effects")),
    (["coarse-grain", "--obs", "noisy-spin", "--map", "empty-map"],
     ("ParseError", None, "map")),
], ids=["bloch-shape", "nonempty-grid", "bloch-r", "no-effects", "empty-map"])
def test_rejection_names_its_invariant_and_field(capsys, tmp_path, argv,
                                                 error):
    out = _run_malformed(capsys, tmp_path, argv)["error"]
    assert (out["type"], out["invariant"], out["field"]) == error


@pytest.mark.parametrize("argv", _ABOVE_MAX_DIM)
def test_dimension_above_max_dim_is_dim_range(capsys, tmp_path, argv):
    assert _run_malformed(capsys, tmp_path, argv)["error"]["invariant"] == \
        "dim-range"


@pytest.mark.parametrize("argv", _ABOVE_MAX_OUTCOMES)
def test_outcomes_above_max_outcomes_is_outcomes_range(capsys, tmp_path, argv):
    error = _run_malformed(capsys, tmp_path, argv)["error"]
    assert (error["invariant"], error["field"]) == ("outcomes-range",
                                                    "--outcomes")


def test_outcomes_at_max_outcomes_is_accepted(capsys):
    code, out = run_cli(capsys, "demo", "example5", "--outcomes",
                        str(MAX_OUTCOMES), "--dim", "1", "--json")
    assert code == 0 and out["pass"] is True


def test_cached_parser_keeps_no_flags_between_calls(capsys, files):
    argv = ["sharp", "--obs", files["obs_rand.json"], "--json"]
    assert main([*argv, "--tol-lin", "1e-6", "--cluster-tol", "100"]) == 0
    custom = capsys.readouterr().out
    assert main(argv) == 0
    cached = capsys.readouterr().out
    assert _build_parser() is _build_parser()
    _build_parser.cache_clear()
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert cached == fresh
    assert custom != fresh


# The shared flags each subcommand's handler and file decoders read.
_TOLS = {"tol-lin", "tol-psd"}
_SHARED_FLAGS_READ = {
    "uncertainty": _TOLS | {"tol-stat"},
    "demo": {"seed"},
    "fuzz": _TOLS | {"tol-stat", "cluster-tol", "seed", "output"},
    "replay": {"output"},
    "sweep-example4": {"seed"},
    "sharp": _TOLS | {"cluster-tol"},
    "conjugate": _TOLS | {"cluster-tol"},
    "coarse-grain": _TOLS,
    "sequential": _TOLS,
    "conditioned": _TOLS,
    "validate": _TOLS,
}
_SHARED_VALUES = {"tol-lin": "1e-9", "tol-psd": "1e-8", "tol-stat": "1e-9",
                  "cluster-tol": "1e-6", "seed": "3", "output": os.devnull}


def _valid_argv(command, files) -> list[str]:
    return {
        "uncertainty": ["--state", files["state.json"],
                        "--obs-a", files["obs_a.json"],
                        "--obs-b", files["obs_b.json"]],
        "demo": ["example2"],  # example1 reads no shared flag
        "fuzz": ["--trials", "1", "--dims", "2"],
        "replay": [files["summary.json"]],
        "sweep-example4": ["--mu-grid", "0.5", "--samples", "2"],
        "sharp": ["--obs", files["obs_rand.json"]],
        "conjugate": ["--obs", files["obs_rand.json"]],
        "coarse-grain": ["--obs", files["obs_a.json"], "--map", files["fmap.json"]],
        "sequential": ["--instrument", files["inst_lueders.json"],
                       "--obs", files["obs_b.json"]],
        "conditioned": ["--instrument", files["inst_trivial.json"],
                        "--obs", files["obs_b.json"]],
        "validate": [files["obs_a.json"]],
    }[command]


def test_parser_gives_each_subcommand_only_the_shared_flags_it_reads():
    """A subcommand's options include those of its own subcommands: demo's
    --seed is on the parsers of the examples that read it."""
    options = {name: long_options(p)
               for name, p in subparsers(_build_parser()).items()}
    assert {name: opts & set(_SHARED_VALUES) for name, opts in options.items()} \
        == _SHARED_FLAGS_READ
    assert all("json" in opts for opts in options.values())
    assert sum(map(len, _SHARED_FLAGS_READ.values())) == 26  # of 11 x 6 slots


@pytest.mark.parametrize("command", list(_SHARED_FLAGS_READ))
def test_each_subcommand_takes_only_the_shared_flags_it_reads(capsys, files,
                                                               command):
    argv = [command, *_valid_argv(command, files)]
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    for flag, value in _SHARED_VALUES.items():
        code, out = run_cli(capsys, *argv, f"--{flag}", value, "--json")
        if flag in _SHARED_FLAGS_READ[command]:
            assert code == 0, flag
        else:
            assert code == 2, flag
            assert out["error"]["type"] == "ParseError"
            assert out["error"]["message"] == \
                f"unrecognized arguments: --{flag} {value}"


@pytest.mark.parametrize("argv, message", [
    (["fuzz", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
    (["sharp"], "the following arguments are required: --obs"),
    (["demo", "example9"], "argument name: invalid choice: 'example9' "),
    (["validate", "f.json", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["demo", "example1", "--js"], "unrecognized arguments: --js"),  # no prefixes
    (["fuzz", "--trials", "1", "--dims", "2", "--clus", "0.1"],
     "unrecognized arguments: --clus 0.1"),
    (["fuzz", "--replay", "s.json"], "unrecognized arguments: --replay s.json"),
    # replay takes no flag of a fuzz run; for the shared flags see
    # test_each_subcommand_takes_only_the_shared_flags_it_reads
    (["replay", "s.json", "--trials", "0"], "unrecognized arguments: --trials 0"),
    (["replay", "s.json", "--dims", "2"], "unrecognized arguments: --dims 2"),
])
@pytest.mark.parametrize("compact", [False, True])
def test_usage_error_is_one_json_diagnostic(capsys, argv, message, compact):
    code = main([*argv, *["--json"] * compact])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert (captured.out.count("\n") == 1) == compact
    error = strict_loads(captured.out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(message)
    assert error["file"] is None


def test_console_entry_point_runs():
    # The child finds qobs where this process did, PYTHONPATH set or not.
    src = os.path.dirname(os.path.dirname(qobs.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv, python=(sys.executable,)):
        return subprocess.run([*python, "-m", "qobs.cli", *argv],
                              capture_output=True, text=True, env=env)

    proc = run("demo", "example1", "--json")
    assert proc.returncode == 0
    assert strict_loads(proc.stdout)["pass"] is True
    # -OO strips the docstrings that the demo parsers take their help from
    assert run("demo", "example1", "--json",
               python=(sys.executable, "-OO")).stdout == proc.stdout
    proc = run("sharp", "--obs", "F", "--seed", "1", "--json")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout.count("\n") == 1
    assert strict_loads(proc.stdout)["error"]["message"] == \
        "unrecognized arguments: --seed 1"
    proc = run("sharp", "--help")
    assert proc.returncode == 0
    assert "--cluster-tol" in proc.stdout and "--seed" not in proc.stdout


def _leaf_paths(doc, path=()):
    """Key paths to every scalar of a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _leaf_paths(value, (*path, key))
    else:
        yield path


def _with_leaf(doc, path, value):
    doc = strict_loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_single_leaf_mutants_exit_0_or_2_with_json(capsys, tmp_path):
    """Every scalar of a few valid documents, replaced in turn by each bad
    value, gives exit 0 or 2 and JSON on stdout from every command that
    reads the document: never a traceback."""
    state = ser.encode_state(DensityOperator(
        [[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
    obs = ser.encode_observable(noisy_spin(0.5, "y"))
    instruments = [
        {"type": "instrument", "family": "trivial", "dim": 2,
         "omega": {"1": 0.25, "-1": 0.75}},
        {"type": "instrument", "family": "holevo", "observable": obs,
         "states": [state, {"type": "bloch", "r": [0.0, 0.6, 0.8]}]},
        {"type": "instrument", "family": "lueders", "observable": obs},
        ser.encode_instrument(lueders_instrument(noisy_spin(0.5, "x"))),
    ]
    valid = {"state": state, "obs": obs, "inst": instruments[2],
             "fmap": {"1": 2.0, "-1": 3.0}}
    for name, doc in valid.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    path = {name: str(tmp_path / f"{name}.json") for name in valid}
    mutant = str(tmp_path / "mutant.json")

    def commands(role):
        yield ["validate", mutant]
        if role == "state":
            yield ["uncertainty", "--state", mutant,
                   "--obs-a", path["obs"], "--obs-b", path["obs"]]
        elif role == "obs":
            yield ["uncertainty", "--state", path["state"],
                   "--obs-a", mutant, "--obs-b", path["obs"]]
            yield ["coarse-grain", "--obs", mutant, "--map", path["fmap"]]
            yield ["sequential", "--instrument", path["inst"], "--obs", mutant]
        else:
            yield ["sequential", "--instrument", mutant, "--obs", path["obs"]]

    runs = 0
    for role, doc in [("state", state), ("obs", obs),
                      *[("instrument", inst) for inst in instruments]]:
        for leaf in _leaf_paths(doc):
            for bad in (None, "x", [], -1, float("nan"), 1e308):
                with open(mutant, "w") as fh:
                    json.dump(_with_leaf(doc, leaf, bad), fh)
                for argv in commands(role):
                    code = main([*argv, "--json"])
                    out = capsys.readouterr().out
                    assert code in (0, 2), (argv[0], leaf, bad)
                    strict_loads(out)
                    runs += 1
    assert runs > 1000


def _family_document(rng, d: int, family: str) -> dict:
    """An instrument document of one family, from seeded draws."""
    A = random_observable(rng, d, 3)
    if family == "trivial":
        return {"type": "instrument", "family": "trivial", "dim": d,
                "omega": {"1": 0.25, "-1.5": 0.5, "2": 0.25}}
    if family == "lueders":
        return {"type": "instrument", "family": "lueders",
                "observable": ser.encode_observable(A)}
    if family == "holevo":
        return ser.encode_instrument(holevo_instrument(
            A, [random_density(rng, d) for _ in range(len(A))]))
    # Two Kraus operators per outcome, U_j E_x^(1/2) / sqrt(2).
    roots = [psd_sqrt(E) for E in A.effects]
    Us = [haar_unitary(rng, d) for _ in range(2)]
    return ser.encode_instrument(Instrument(
        A.outcomes, [[U @ R / np.sqrt(2.0) for U in Us] for R in roots]))


def _seven_commands(tmp_path, d: int, family: str) -> list[list[str]]:
    """The seven commands of the benchmark's ``cli_json`` case on files
    drawn from a seed of their own."""
    rng = np.random.default_rng(100 + d)
    rho, A = random_density(rng, d), random_observable(rng, d, 3)
    docs = {"state": ser.encode_state(rho), "a": ser.encode_observable(A),
            "b": ser.encode_observable(random_observable(rng, d, 2)),
            "inst": _family_document(rng, d, family),
            "map": {repr(x): v for x, v in zip(A.outcomes, (1.0, -1.0, 1.0))}}
    p = {}
    for name, doc in docs.items():
        p[name] = str(tmp_path / f"{family}-{name}.json")
        with open(p[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return [["uncertainty", "--state", p["state"], "--obs-a", p["a"],
             "--obs-b", p["b"]],
            ["sharp", "--obs", p["a"]],
            ["conjugate", "--obs", p["a"]],
            ["coarse-grain", "--obs", p["a"], "--map", p["map"]],
            ["sequential", "--instrument", p["inst"], "--obs", p["b"]],
            ["conditioned", "--instrument", p["inst"], "--obs", p["b"]],
            ["validate", p["inst"]]]


@pytest.mark.parametrize("d, family, digest", [
    (2, "trivial", "aeb882f056acf14d2d84a2268a183879e9ad9eab51d69ed852be2f60dacad12a"),
    (3, "holevo", "e42d80e7af9818253a83977143280bbb4fdf9da3d4af20e9fe028b8127bf2fb9"),
    (4, "lueders", "8f7e878bd3f00613251450b51490d3d42c45a6725df3769449503a63f99b30df"),
    (3, "kraus", "b60d0b8486658274f4e2262a2f45d818fad6f0b8e69104fef62e9da2db089673"),
], ids=["trivial", "holevo", "lueders", "kraus"])
def test_stdout_of_the_benchmark_commands_is_pinned(capsys, tmp_path, d,
                                                    family, digest):
    """The SHA-256 of the stdout of the seven ``cli_json`` commands, one case
    per instrument family.  The benchmark's own gate computes its expected
    stdout with the same encoders, so it cannot see an encoder change; these
    digests can.  They are the same with ``OPENBLAS_NUM_THREADS=1`` and with
    the default thread setting."""
    text = ""
    for argv in _seven_commands(tmp_path, d, family):
        assert main([*argv, "--json"]) == 0
        text += capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _fresh_cli(*argv, cwd=None, python=(sys.executable,)):
    """``python -m qobs.cli *argv`` in a new interpreter, which finds qobs
    where this process did."""
    src = os.path.dirname(os.path.dirname(qobs.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([*python, "-m", "qobs.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, env=env)


class TestColdLaunch:
    """A launch imports only what its subcommand runs: ``validate``, the
    benchmark's cold-launch command, runs no demo, fuzz or sampling code."""

    UNUSED_BY_VALIDATE = ("qobs.demos", "qobs.fuzz", "qobs.sampling", "csv")

    def test_validate_imports_no_demo_fuzz_sampling_or_csv(self, files):
        proc = _fresh_cli("validate", files["state.json"], "--json",
                          python=(sys.executable, "-X", "importtime"))
        assert proc.returncode == 0
        assert strict_loads(proc.stdout)["valid"] is True
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "qobs.serialization" in imported  # the listing is read
        assert imported.isdisjoint(self.UNUSED_BY_VALIDATE)

    # SHA-256 of the stdout, as written before these imports moved into the
    # handlers that run them; the fuzz summary and the replay since with the
    # name of the worst row, ``row``, their only new key.
    @pytest.mark.parametrize("argv, digest", [
        (("demo", "example1", "--json"),
         "62a1e3f30bd0bcc34b7b3540e598596c2961e463eced3ca85bd78e947866b7a4"),
        (("fuzz", "--trials", "2", "--json"),
         "54cd5af480eb93f36ab14fd5b41c8a945851d989c80fc5b51d9d48021ed3f994"),
        (("sweep-example4", "--samples", "2", "--json"),
         "fd4f9e832b35bdf6d2997e206ddc41f9e74cfed5b89b71d1853680044118e21a"),
    ], ids=["demo", "fuzz", "sweep"])
    def test_handlers_import_what_they_run(self, argv, digest):
        proc = _fresh_cli(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    def test_replay_imports_what_it_runs(self, tmp_path):
        proc = _fresh_cli("fuzz", "--trials", "2", "--output", "summary.json",
                          cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (0, "")
        proc = _fresh_cli("replay", "summary.json", "--json", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            "c34d138786b145e1dbadbb776a8e24e348f84499cacce51d9897755da70d3d1e"

    def test_a_parser_without_the_examples_parses_as_the_full_one(self, files):
        """``main`` builds the ``demo`` examples only for an argv holding the
        token ``demo``; every other argv parses to the same namespace."""
        argv = ["fuzz", "--trials", "3", "--dims", "2..4"]
        assert vars(_build_parser(False).parse_args(argv)) == \
            vars(_build_parser().parse_args(argv)) == {
                **vars(_build_parser().parse_args(["fuzz"])),
                "trials": 3, "dims": "2..4"}
        assert subparsers(subparsers(_build_parser(False))["demo"]) == {}
