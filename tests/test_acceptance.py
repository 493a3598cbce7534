"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from qobs import statistics as stats
from qobs.cli import main
from qobs.fuzz import RunConfig, run_fuzz
from qobs.instruments import (
    conditioned_observable,
    sequential_product,
    trivial_instrument,
)
from qobs.linalg import commutator, max_abs
from qobs.observables import (
    coarse_grain,
    conjugate,
    sharp_version,
    stochastic_operator,
)
from qobs.qubit import noisy_spin
from qobs.sampling import (
    random_bloch_vector,
    random_commutative_observable,
    random_density,
    random_faithful_density,
    random_hermitian,
    random_observable,
    random_outcomes,
    random_probability_vector,
)
from qobs.serialization import canonical_json
from qobs.states import DensityOperator, bloch_state

from conftest import random_instrument, random_sharp_observable

DIMS = (2, 3, 4, 5, 6)

_corpus_cache: dict = {}


def uncertainty_corpus():
    """1000 seeded (rho, A, B) triples with mixed ranks and observable kinds,
    shared by criteria 1 and 2."""
    if "reports" in _corpus_cache:
        return _corpus_cache["reports"], _corpus_cache["elapsed"]
    children = np.random.SeedSequence(20240).spawn(1000)
    reports = []
    start = time.perf_counter()
    for i in range(1000):
        rng = np.random.default_rng(children[i])
        d = DIMS[i % len(DIMS)]
        rho = random_density(rng, d, rank=None if i % 2 == 0 else d - 1)

        def draw(kind: int):
            n = 2 + (i % 3)
            if kind == 0:
                return random_observable(rng, d, n)
            if kind == 1:
                return random_sharp_observable(rng, d, min(n, d))
            return random_commutative_observable(rng, d, n)

        A = draw(i % 3)
        B = draw((i + 1) % 3)
        reports.append(stats.uncertainty_report(rho, A, B))
    elapsed = time.perf_counter() - start
    _corpus_cache["reports"] = reports
    _corpus_cache["elapsed"] = elapsed
    return reports, elapsed


def test_criterion_1_uncertainty_equation():
    reports, elapsed = uncertainty_corpus()
    worst = 0.0
    for rep in reports:
        scale = max(1.0, rep.correlation_sq)
        worst = max(worst, abs(rep.equation_residual) / scale)
        assert abs(rep.equation_residual) <= 1e-9 * scale
    assert elapsed < 10.0, f"corpus evaluation took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: uncertainty equation on 1000 triples, "
          f"max |residual|/scale = {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_uncertainty_inequality():
    reports, _ = uncertainty_corpus()
    worst_slack = 0.0
    for rep in reports:
        scale = max(1.0, rep.correlation_sq)
        assert rep.inequality_slack >= -1e-9 * scale
        # Classical commutator-only bound is implied on every instance.
        assert rep.commutator_term <= rep.variance_product + 1e-9 * scale
        worst_slack = max(worst_slack, -rep.inequality_slack / scale)
    print(f"ACCEPTANCE 2 PASS: uncertainty inequality and classical bound on "
          f"1000 triples, worst slack violation {worst_slack:.2e}")


def test_criterion_3_noisy_spin_closed_forms():
    rng = np.random.default_rng(31415)
    vectors = [random_bloch_vector(rng, surface=True) for _ in range(10)]
    vectors += [random_bloch_vector(rng) for _ in range(40)]
    worst = 0.0
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        A, B = noisy_spin(mu, "x"), noisy_spin(mu, "y")
        for r in vectors:
            r1, r2, r3 = (float(v) for v in r)
            rho = bloch_state(r)
            rep = stats.uncertainty_report(rho, A, B)
            mu4 = mu ** 4
            deltas = [
                abs(stats.average(rho, A) - r1 * mu),
                abs(stats.average(rho, B) - r2 * mu),
                abs(stats.variance(rho, A) - mu ** 2 * (1 - r1 ** 2)),
                abs(stats.variance(rho, B) - mu ** 2 * (1 - r2 ** 2)),
                abs(stats.correlation(rho, A, B)
                    - complex(-r1 * r2 * mu ** 2, r3 * mu ** 2)),
                abs(rep.commutator_term / 16 - r3 ** 2 * mu4 / 16),
                abs(rep.covariance_sq / 16 - (r1 * r2) ** 2 * mu4 / 16),
                abs(rep.correlation_sq / 16
                    - (r3 ** 2 + (r1 * r2) ** 2) * mu4 / 16),
            ]
            worst = max(worst, *deltas)
            assert max(deltas) <= 1e-12
            # Corrected slack identity and equality detection on the sphere.
            slack_closed = ((1 - r1 ** 2) * (1 - r2 ** 2)
                            - r3 ** 2 - (r1 * r2) ** 2) * mu4 / 16
            assert abs(rep.inequality_slack / 16 - slack_closed) <= 1e-12
            assert slack_closed >= -1e-12
            norm_sq = r1 ** 2 + r2 ** 2 + r3 ** 2
            if mu > 0 and abs(norm_sq - 1.0) <= 1e-13:
                assert abs(rep.inequality_slack) <= 1e-12
    print(f"ACCEPTANCE 3 PASS: all eight noisy-spin closed forms over "
          f"5 mu values x 50 Bloch vectors, max delta {worst:.2e}")


def test_criterion_4_equality_characterization():
    rng = np.random.default_rng(27182)
    worst_gap, worst_rec = 0.0, 0.0
    for i in range(200):
        d = DIMS[i % len(DIMS)]
        rho = random_faithful_density(rng, d, floor=0.05)
        assert rho.eigenvalues[0] >= 0.05 - 1e-12
        A = random_hermitian(rng, d)
        alpha, beta = rng.uniform(-3, 3), rng.uniform(-3, 3)
        B = alpha * A + beta * np.eye(d)
        diag = stats.equality_diagnosis(rho, A, B)
        rep = diag.report
        scale = max(1.0, rep.correlation_sq)
        gap = abs(rep.variance_product - rep.correlation_sq)
        assert gap <= 1e-8 * scale
        assert diag.faithful and diag.inequality_is_equality
        # The relation B = c A + beta I, read off the diagnosis.
        a = diag.slope.real
        b = stats.average(rho, B) - a * stats.average(rho, A)
        assert abs(a - alpha) <= 1e-8
        assert abs(b - beta) <= 1e-8
        worst_gap = max(worst_gap, gap / scale)
        worst_rec = max(worst_rec, abs(a - alpha), abs(b - beta))
    for i in range(200):
        d = DIMS[i % len(DIMS)]
        rho = random_faithful_density(rng, d, floor=0.05)
        A, B = random_hermitian(rng, d), random_hermitian(rng, d)
        assert not stats.equality_diagnosis(rho, A, B).inequality_is_equality
    print(f"ACCEPTANCE 4 PASS: affine pairs give equality (max gap/scale "
          f"{worst_gap:.2e}, recovery error {worst_rec:.2e}); no random pair "
          f"is tight")


def test_criterion_5_sharp_version_and_conjugate():
    rng = np.random.default_rng(16180)
    worst_sto, worst_sharp, worst_comm = 0.0, 0.0, 0.0
    for i in range(300):
        d = DIMS[i % len(DIMS)]
        A = random_observable(rng, d, 2 + (i % 3))
        sto = stochastic_operator(A)
        sharp = sharp_version(A)
        delta_sto = max_abs(stochastic_operator(sharp) - sto)
        assert delta_sto <= 1e-9
        conj = conjugate(A)
        sharp_c = sharp_version(conj)
        assert len(sharp_c) == len(sharp)
        cluster_tol = 1e-8 * max(1.0, max_abs(sto))
        delta = 0.0
        for lam_a, lam_c in zip(sharp.outcomes, sharp_c.outcomes):
            assert abs(lam_a - lam_c) <= cluster_tol
        for P, Q in zip(sharp.effects, sharp_c.effects):
            delta = max(delta, max_abs(P - Q))
        assert delta <= 1e-9
        worst_sto = max(worst_sto, delta_sto)
        worst_sharp = max(worst_sharp, delta)
    for i in range(300):
        d = DIMS[i % len(DIMS)]
        A = random_commutative_observable(rng, d, 2 + (i % 3))
        conj = conjugate(A)
        delta = max(max_abs(E - F) for E, F in zip(conj.effects, A.effects))
        assert delta <= 1e-9
        worst_comm = max(worst_comm, delta)
    print(f"ACCEPTANCE 5 PASS: sharp versions share the stochastic operator "
          f"(max {worst_sto:.2e}), conjugates share the sharp version "
          f"(max {worst_sharp:.2e}), commutative conjugates are identities "
          f"(max {worst_comm:.2e})")


def test_criterion_6_instrument_families():
    rng = np.random.default_rng(14142)
    worst = {"prob": 0.0, "adj": 0.0, "seq": 0.0, "cg": 0.0, "cond": 0.0}
    for family in ("trivial", "holevo", "lueders"):
        for i in range(100):
            d = 2 + (i % 3)
            inst = random_instrument(rng, d, family)
            rho = random_density(rng, d)
            C = random_hermitian(rng, d)
            B = random_observable(rng, d, 2)
            measured = inst.measured_observable()
            for x, E in measured.pairs():
                p_delta = abs(np.trace(inst.apply(x, rho)).real
                              - np.trace(rho.matrix @ E).real)
                a_delta = abs(np.trace(rho.matrix @ inst.dual_apply(x, C))
                              - np.trace(inst.apply(x, rho) @ C))
                assert p_delta <= 1e-10
                assert a_delta <= 1e-10
                worst["prob"] = max(worst["prob"], p_delta)
                worst["adj"] = max(worst["adj"], a_delta)
            product = sequential_product(inst, B)
            seq_delta = max_abs(sum(product.effects) - np.eye(d))
            assert seq_delta <= 1e-9
            worst["seq"] = max(worst["seq"], seq_delta)
            f = {x: float(v) for x, v in
                 zip(inst.outcomes, rng.integers(0, 2, size=len(inst)))}
            lhs = inst.coarse_grain(f).measured_observable()
            rhs = coarse_grain(measured, f)
            cg_delta = max(max_abs(E - F)
                           for E, F in zip(lhs.effects, rhs.effects))
            assert cg_delta <= 1e-9
            worst["cg"] = max(worst["cg"], cg_delta)
            if family == "trivial":
                cond = conditioned_observable(inst, B)
                cond_delta = max(max_abs(E - F)
                                 for E, F in zip(cond.effects, B.effects))
                assert cond_delta <= 1e-12
                worst["cond"] = max(worst["cond"], cond_delta)
    print(f"ACCEPTANCE 6 PASS: 100 fixtures per family; probability "
          f"{worst['prob']:.2e}, adjointness {worst['adj']:.2e}, sequential "
          f"completeness {worst['seq']:.2e}, coarse-grain naturality "
          f"{worst['cg']:.2e}, trivial conditioning {worst['cond']:.2e}")


def test_criterion_7_uncorrelated_noncommuting_fixture():
    rho = DensityOperator(np.diag([1.0, 0.0]))
    phi = np.array([0.0, 1.0])
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    A = np.outer(phi, phi.conj()).astype(complex)
    B = np.outer(psi, psi.conj()).astype(complex)
    cor = stats.correlation(rho, A, B)
    comm_norm = max_abs(commutator(A, B))
    assert abs(cor) <= 1e-15
    assert comm_norm >= 0.4
    print(f"ACCEPTANCE 7 PASS: correlation {abs(cor):.2e} (exactly "
          f"uncorrelated) while the commutator norm is {comm_norm:.3f}")


def test_criterion_8_fuzz_determinism(capsys, tmp_path):
    config = RunConfig(seed=42, trials=30, dims=(2, 3, 4))
    direct1 = canonical_json(run_fuzz(config))
    direct2 = canonical_json(run_fuzz(config))
    assert direct1 == direct2
    argv = ["fuzz", "--trials", "30", "--dims", "2..4", "--seed", "42",
            "--json"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["violations"] == 0
    with capsys.disabled():
        print("\nACCEPTANCE 8 PASS: fuzz summaries are byte-identical for a "
              "fixed seed, zero violations")
