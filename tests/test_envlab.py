import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dynaperc import envlab as L
from dynaperc import evoset
from dynaperc.dist import tv
from dynaperc.errors import InputError

from helpers import (dict_doob_z_expectation, enumerate_tail, mc_tail, random_pi,
                     random_kernels)


def _ring_chain():
    pi = np.full(4, 0.25)
    ring = np.array([[0.5, 0.25, 0.0, 0.25],
                     [0.25, 0.5, 0.25, 0.0],
                     [0.0, 0.25, 0.5, 0.25],
                     [0.25, 0.0, 0.25, 0.5]])
    slow = 0.5 * ring + 0.5 * np.eye(4)
    R = np.full((2, 2), 0.5)
    return L.FiniteEnvChain(R=R, kernels=(ring, slow), pi=pi)


def test_chain_validation():
    pi = np.array([0.5, 0.5])
    I = np.eye(2)
    with pytest.raises(InputError):
        L.FiniteEnvChain(R=np.array([[0.5, 0.4], [0.5, 0.5]]), kernels=(I, I), pi=pi)
    with pytest.raises(InputError):
        L.FiniteEnvChain(R=np.eye(2), kernels=(I,), pi=pi)
    biased = np.array([[0.9, 0.1], [0.5, 0.5]])  # pi not stationary
    with pytest.raises(InputError):
        L.FiniteEnvChain(R=np.eye(2), kernels=(biased, I), pi=pi)


_UNIFORM3 = np.full((3, 3), 1.0 / 3)
_NAN_DIAGONAL = _UNIFORM3.copy()
_NAN_DIAGONAL[0, 0] = np.nan
_CHAIN_CLASSES = {
    "InhomChain": lambda pi, K: evoset.InhomChain(pi=pi, kernels=(K,)),
    "FiniteEnvChain": lambda pi, K: L.FiniteEnvChain(R=np.eye(1), kernels=(K,), pi=pi),
}


@pytest.mark.parametrize("pi, K", [([np.nan, 0.5, 0.5], _UNIFORM3),
                                   ([np.inf, 0.5, 0.5], _UNIFORM3),
                                   ([1 / 3, 1 / 3, 1 / 3], _NAN_DIAGONAL)],
                         ids=["nan-pi", "inf-pi", "nan-kernel"])
@pytest.mark.parametrize("cls", sorted(_CHAIN_CLASSES))
def test_non_finite_chain_is_rejected(cls, pi, K):
    # NaN passes every `>` test, so only an explicit finiteness check stops it
    with pytest.raises(InputError):
        _CHAIN_CLASSES[cls](np.array(pi), K)


def test_gamma():
    chain = _ring_chain()
    assert chain.gamma == 0.5


def test_annealed_kernel_stochastic_and_stationary():
    chain = _ring_chain()
    ann = L.annealed_kernel(chain)
    Q = ann.matrix
    assert np.abs(Q.sum(axis=1) - 1.0).max() < 1e-12
    # uniform-env x pi is stationary for the product chain
    mu = np.kron(np.full(2, 0.5), chain.pi)
    assert np.abs(mu @ Q - mu).max() < 1e-12
    assert ann.index(1, 2) == 6


def test_quenched_law_product():
    chain = _ring_chain()
    law = L.quenched_law(chain, [0, 1, 0], 2)
    vec = np.zeros(4)
    vec[2] = 1.0
    expect = vec @ chain.kernels[0] @ chain.kernels[1] @ chain.kernels[0]
    assert np.allclose(law, expect)


def test_quenched_law_off_support_warns():
    chain = _ring_chain()
    off = L.FiniteEnvChain(R=np.eye(2), kernels=chain.kernels, pi=chain.pi)
    with pytest.warns(UserWarning):
        L.quenched_law(off, [0, 1], 0)


@pytest.mark.parametrize("path, x0", [([0, 1], -1), ([0, 1], 4), ([0, 1], 0.5),
                                      ([0, -1], 0), ([0, 2], 0), ([0.5], 0)])
def test_quenched_law_refuses_indices_outside_the_chain(path, x0):
    # -1 wrapped to the last state, silently
    with pytest.raises(InputError):
        L.quenched_law(_ring_chain(), path, x0)


@pytest.mark.parametrize("zeta0", [-1, 2, 0.5])
def test_sample_env_path_refuses_a_start_outside_the_chain(zeta0):
    with pytest.raises(InputError):
        L.sample_env_path(_ring_chain(), zeta0, 3, np.random.default_rng(0))


@pytest.mark.parametrize("steps", [-1, 2.5])
def test_sample_env_path_refuses_a_bad_step_count(steps):
    # numpy raised ValueError for -1 and TypeError for 2.5
    with pytest.raises(InputError):
        L.sample_env_path(_ring_chain(), 0, steps, np.random.default_rng(0))


def test_counterexample_values():
    chain = L.counterexample_chain()
    # annealed: average of identity and swap sends any start to uniform
    ann = L.annealed_kernel(chain)
    vec = np.zeros(4)
    vec[ann.index(0, 0)] = 0.5
    vec[ann.index(1, 0)] = 0.5
    law = (vec @ ann.matrix).reshape(2, 2).sum(axis=0)
    assert tv(law, chain.pi) == 0.0
    # quenched: every one-step law is a point mass
    for path in ([0], [1]):
        assert tv(L.quenched_law(chain, path, 0), chain.pi) == 0.5
    # and gamma = 0 rules the tail theorem inapplicable
    with pytest.raises(InputError):
        L.theorem_2_1_check(chain, 0, 0.1)


def test_variant_chain_structure():
    chain = _ring_chain()
    var = L.variant_chain(chain)
    assert var.n_env == 4
    assert np.abs(var.R.sum(axis=1) - 1.0).max() < 1e-12
    # frozen states carry the identity kernel
    assert np.array_equal(var.kernels[0], np.eye(4))
    assert np.array_equal(var.kernels[2], np.eye(4))
    assert np.array_equal(var.kernels[1], chain.kernels[0])
    # from any state: half the mass freezes, half moves by R
    assert var.R[1, 0] == 0.5
    assert var.R[1, 1] == pytest.approx(0.25)


def test_theorem_check_certificate_and_enumerate_agree_on_small_case():
    chain = _ring_chain()
    rep = L.theorem_2_1_check(chain, 0, 0.1)
    assert rep.gamma == 0.5
    assert rep.steps >= 1
    assert rep.passed
    assert (rep.per_zeta_certificate <= math.sqrt(0.1) + 1e-9).all()


def test_theorem_check_mc():
    # Monte Carlo over environment paths at the certified step count: the
    # tail bound holds within each start's Wilson interval
    chain = _ring_chain()
    rep = L.theorem_2_1_check(chain, 0, 0.1)
    for z0 in range(chain.n_env):
        tail, ci = mc_tail(chain, 0, z0, rep.steps, rep.threshold, 500, seed=3 + z0)
        assert ci[0] <= rep.threshold + 1e-12
        assert tail <= rep.threshold + 1e-12


def test_theorem_check_refuses_other_modes():
    # the path-enumeration and Monte Carlo tails are test references now
    for mode in ("mc", "enumerate"):
        with pytest.raises(InputError):
            L.theorem_2_1_check(_ring_chain(), 0, 0.1, mode=mode)


def test_enumerate_small_steps_tail():
    # enumeration is exercised directly at small n where 2^n is tractable
    chain = _ring_chain()
    for z0 in range(2):
        t = enumerate_tail(chain, 0, z0, 8, threshold=0.9)
        assert 0.0 <= t <= 1.0
        # certificate dominates the tail by Markov's inequality
        cert = L._doob_z_certificates(chain, 0, 8)[z0]
        assert t * 0.9 <= cert + 1e-9


def test_variant_theorem_certificate():
    var = L.variant_chain(_ring_chain())
    rep = L.theorem_2_1_check(var, 0, 0.04)
    assert rep.passed


def test_random_chain_certificates():
    rng = np.random.default_rng(17)
    for trial in range(5):
        pi = random_pi(rng, 3)
        kernels = random_kernels(rng, pi, 2)
        w = rng.random((2, 2)) + 0.2
        R = w / w.sum(axis=1, keepdims=True)
        chain = L.FiniteEnvChain(R=R, kernels=kernels, pi=pi)
        rep = L.theorem_2_1_check(chain, 0, 0.1)
        assert rep.passed


def _random_chain(rng, m, n_env, zero_entry):
    pi = random_pi(rng, m)
    w = rng.random((n_env, n_env)) + 0.2
    if zero_entry:
        w[0, 1] = 0.0
    R = w / w.sum(axis=1, keepdims=True)
    return L.FiniteEnvChain(R=R, kernels=random_kernels(rng, pi, n_env), pi=pi)


@pytest.mark.parametrize("seed", range(6))
def test_certificate_matches_dict_reference(seed):
    # 3-5 states, R with and without zero entries, and the variant chain
    rng = np.random.default_rng(seed)
    chain = _random_chain(rng, 3 + seed % 3, 2 + seed % 2, zero_entry=seed % 2 == 0)
    for ch in (chain, L.variant_chain(chain)):
        for n in (0, 1, 6):
            got = L._doob_z_certificates(ch, 0, n)
            for z in range(ch.n_env):
                # the exact rational sum of the same float inputs bounds the
                # engine's rounding; the float dict loop rounds in another
                # order and was itself seen up to 1.6e-15 from the exact sum
                exact = dict_doob_z_expectation(ch, 0, z, n, number=Fraction)
                assert abs(got[z] - exact) <= 1e-15
                assert abs(got[z] - dict_doob_z_expectation(ch, 0, z, n)) <= 4e-15


@pytest.mark.parametrize("seed", range(6))
def test_certificate_branches_agree(seed, monkeypatch):
    # the chains of test_certificate_matches_dict_reference, each branch forced
    rng = np.random.default_rng(seed)
    chain = _random_chain(rng, 3 + seed % 3, 2 + seed % 2, zero_entry=seed % 2 == 0)
    for ch in (chain, L.variant_chain(chain)):
        for n in (0, 1, 6, 150, 700):
            got = {}
            for cap in (0, 1 << 20):  # the bincount loop, then dense powering
                monkeypatch.setattr(L, "_DENSE_MAX_PAIRS", cap)
                got[cap] = L._doob_z_certificates(ch, 0, n)
            assert np.all(np.abs(got[1 << 20] - got[0]) <= 1e-13 * np.abs(got[0]))


def test_dense_powering_only_up_to_the_pair_cap(monkeypatch):
    powered = []
    power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda T, n: powered.append(len(T)) or power(T, n))
    rng = np.random.default_rng(7)
    for m, n_env in ((5, 4), (6, 4)):  # P = 128 and 256 pairs
        L._doob_z_certificates(_random_chain(rng, m, n_env, zero_entry=False), 0, 6)
    assert L._DENSE_MAX_PAIRS == 128 and powered == [128]


def _three_state_chains():
    rng = np.random.default_rng(4)
    chain = _random_chain(rng, 3, 2, zero_entry=False)
    return chain, evoset.InhomChain(pi=chain.pi, kernels=chain.kernels)


_START_CHECKS = {
    "theorem_2_1_check": lambda x: L.theorem_2_1_check(_three_state_chains()[0], x, 0.1),
    "doob_z_bound_check": lambda x: evoset.doob_z_bound_check(_three_state_chains()[1], x),
    "psi_step_count": lambda x: evoset.psi_step_count(_three_state_chains()[1], x, 0.1),
}


@pytest.mark.parametrize("x", [-1, 3, 5])
@pytest.mark.parametrize("check", sorted(_START_CHECKS))
def test_start_state_outside_the_chain_is_rejected(check, x):
    with pytest.raises(InputError):
        _START_CHECKS[check](x)


def test_checked_chains_are_not_checked_again(monkeypatch):
    # a chain is checked when it is built; its profiles are not checked per call
    chain, inhom = _three_state_chains()

    def check_chain(*args):
        raise AssertionError("a checked chain was checked again")

    monkeypatch.setattr(evoset, "check_chain", check_chain)
    L.theorem_2_1_check(chain, 0, 0.1)
    evoset.psi_step_count(inhom, 0, 0.1)


def test_certificate_path_does_not_load_scipy():
    code = ("import sys, numpy as np\n"
            "import dynaperc\n"
            "from dynaperc import envlab, evoset\n"
            "chain = envlab.counterexample_chain()\n"
            "lazy = envlab.FiniteEnvChain(R=chain.R, pi=chain.pi,\n"
            "                             kernels=tuple(0.5 * (K + np.eye(2))\n"
            "                                           for K in chain.kernels))\n"
            "envlab.theorem_2_1_check(lazy, 0, 0.1)\n"
            "evoset.psi_profile_kernels(lazy.kernels, lazy.pi)\n"
            "inhom = evoset.InhomChain(pi=lazy.pi, kernels=lazy.kernels * 3)\n"
            "evoset.doob_z_bound_check(inhom, 0)\n"
            "evoset.propagate_set_law(inhom.kernels, inhom.pi, 1, prune=0.0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
