"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. The random instance families stay within the oracle enumeration
cap so every check has an exhaustive ground truth.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from daglattice import (
    TargetSequence,
    best_path,
    build_random,
    expected_states,
    glance_assign,
    joint_viterbi,
    nll,
    posterior,
    save_lattice,
    save_target,
    tau_schedule,
)
from daglattice import oracle
from daglattice.cli import main
from daglattice.gradcheck import finite_difference_check
from daglattice.pipeline import length_regulate, tts_losses
from daglattice import dp

import reference_kernels as ref


def _instances(n, seed, hidden_dim=0, l_max=8, m_max=6, l_min=2):
    """Random (lattice, target) pairs, always feasible (M <= L)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        L = int(rng.integers(l_min, l_max + 1))
        M = int(rng.integers(2, min(L, m_max) + 1))
        V = int(rng.integers(2, 6))
        lat = build_random(L, V, hidden_dim, int(rng.integers(0, 2**31)))
        y = rng.integers(0, V, size=M)
        out.append((lat, y))
    return out


def _report(name):
    print(f"PASS: {name}")


def test_oracle_equivalence_likelihood():
    for lat, y in _instances(200, seed=100):
        assert abs(nll(lat, y) - (-oracle.enumerate_logprob(lat, y))) <= 1e-9
    _report("oracle equivalence, likelihood (200 instances, |dnll| <= 1e-9)")


def test_oracle_equivalence_posterior():
    for lat, y in _instances(200, seed=200):
        post = posterior(lat, y, with_pairwise=True)
        ref = oracle.enumerate_posterior(lat, y)
        assert np.max(np.abs(post.gamma - ref.gamma)) <= 1e-9
        assert np.max(np.abs(post.xi - ref.xi)) <= 1e-9
        assert np.max(np.abs(post.gamma.sum(axis=1) - 1.0)) <= 1e-9
    _report("oracle equivalence, posterior (gamma/xi <= 1e-9, rows sum to 1)")


def test_oracle_equivalence_expected_states():
    for d in (1, 3, 8):
        for lat, y in _instances(70, seed=300 + d, hidden_dim=d):
            z = expected_states(lat, y).z
            ref = oracle.enumerate_expected_states(lat, y)
            assert np.max(np.abs(z - ref)) <= 1e-9
            lo = lat.hidden_states.min(axis=0) - 1e-12
            hi = lat.hidden_states.max(axis=0) + 1e-12
            assert np.all(z >= lo) and np.all(z <= hi)
    _report("oracle equivalence, expected states (d in {1,3,8}, convex hull held)")


def test_best_path_matches_oracle():
    for lat, y in _instances(200, seed=400):
        path, score = best_path(lat, y)
        ref_path, _, ref_score = oracle.enumerate_argmax(lat, y)
        assert abs(score - ref_score) <= 1e-9
        assert path.vertices == ref_path
    _report("best-path correctness (score <= 1e-9, path exact under tie rule)")


def test_gradient_finite_differences():
    for lat, y in _instances(50, seed=500, l_max=6, m_max=5):
        result = finite_difference_check(lat, y, step=1e-6, grad_floor=1e-8)
        assert result["max_rel_err"] <= 1e-5
        # the same perturbed values as copying both matrices per evaluation;
        # after a step of 1, subtracting it again would not restore every entry
        assert result == ref.finite_difference_check(lat, y, step=1e-6, grad_floor=1e-8)
        assert finite_difference_check(lat, y, step=1.0) == ref.finite_difference_check(lat, y, 1.0)
    _report("gradient check (50 instances, max relative error <= 1e-5)")


def test_joint_viterbi_optimal_at_selected_length():
    rng = np.random.default_rng(600)
    for _ in range(100):
        L = int(rng.integers(2, 9))
        V = int(rng.integers(2, 6))
        lat = build_random(L, V, 0, int(rng.integers(0, 2**31)))
        jv = joint_viterbi(lat)
        _, _, ref_score = oracle.enumerate_argmax(lat, length=len(jv.path))
        assert jv.joint_logprob >= ref_score - 1e-9
    _report("joint-Viterbi optimality at selected length (100 instances)")


def test_max_vs_sum_sanity():
    for lat, y in _instances(200, seed=700):
        _, score = best_path(lat, y)
        assert score <= -nll(lat, y) + 1e-12
    _report("max-vs-sum sanity (best-path score <= log marginal + 1e-12)")


def test_runtime_scaling(capsys):
    code = main(["--no-timing", "bench", "--sizes", "256,512,1024",
                 "--target-len", "32", "--repeats", "7"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["outputs"]["rows"]
    ratios = [r["ratio_to_prev"] for r in rows[1:]]
    for ratio in ratios:
        assert 3.0 <= ratio <= 6.0, f"scaling ratio {ratio} outside [3, 6]"
    with capsys.disabled():
        _report(f"runtime scaling O(ML^2) (ratios {[round(r, 2) for r in ratios]})")


def test_decode_and_glance_determinism(tmp_path):
    lat = build_random(8, 5, 0, 11)
    save_lattice(lat, tmp_path / "lat.json", "json")
    save_target(TargetSequence(np.array([1, 2, 3, 0, 4])), tmp_path / "tgt.json")
    commands = [
        ["decode", "--strategy", "lookahead", "--lattice", str(tmp_path / "lat.json")],
        ["decode", "--strategy", "viterbi", "--lattice", str(tmp_path / "lat.json")],
        ["decode", "--strategy", "viterbi", "--length-select", "raw",
         "--lattice", str(tmp_path / "lat.json")],
        ["bestpath", "--lattice", str(tmp_path / "lat.json"),
         "--target", str(tmp_path / "tgt.json")],
        ["glance", "--lattice", str(tmp_path / "lat.json"),
         "--target", str(tmp_path / "tgt.json"), "--tau", "0.5", "--seed", "3"],
    ]
    for cmd in commands:
        argv = [sys.executable, "-m", "daglattice.cli", "--no-timing", *cmd]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
    _report("determinism (decode/bestpath/glance byte-identical stdout)")


def test_glancing_contract():
    for tenths in range(11):
        tau = tenths / 10
        for M in range(1, 11):
            lat = build_random(max(M, 2), 4, 0, tenths * 11 + M)
            y = np.random.default_rng(M).integers(0, 4, size=M) if M > 1 else None
            if M == 1:
                continue  # covered via unmask_count below
            ga = glance_assign(lat, y, tau, seed=5)
            assert ga.observed_mask.sum() == math.ceil(Fraction(tenths, 10) * M)
    from daglattice.decode import unmask_count

    for tenths in range(11):
        for M in range(1, 11):
            assert unmask_count(tenths / 10, M) == math.ceil(Fraction(tenths, 10) * M)
    assert tau_schedule(0, 100, 0.5, 0.1) == pytest.approx(0.5, abs=1e-12)
    assert tau_schedule(100, 100, 0.5, 0.1) == pytest.approx(0.1, abs=1e-12)
    _report("glancing contract (unmask count exact, tau endpoints 0.5 / 0.1)")


def test_pipeline_arithmetic():
    rng = np.random.default_rng(900)
    for _ in range(1000):
        M = int(rng.integers(1, 20))
        durations = rng.integers(0, 6, size=M)
        states = rng.random((M, 3))
        frames = length_regulate(states, durations)
        assert frames.shape[0] == int(durations.sum())

    lat = build_random(6, 4, 0, 901)
    y = [0, 1, 2]
    nll_value = dp.nll(lat, y)
    tts = tts_losses(rng.random((4, 3)), rng.random((4, 3)),
                     rng.random(4), rng.random(4), rng.random(4), rng.random(4),
                     rng.random(4), rng.random(4))
    for mu in (0.0, 1.0, 5.0):
        combined = dp.composite_loss(nll_value, tts.total, mu)
        assert abs(combined - (nll_value + mu * tts.total)) <= 1e-12
    _report("pipeline arithmetic (1000 duration plans, loss affine in mu)")
