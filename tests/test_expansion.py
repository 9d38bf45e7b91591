import collections
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dynaperc import envlab as L
from dynaperc import evoset as E
from dynaperc import expansion as X
from dynaperc.dynenv import DynParams, sample_env
from dynaperc.errors import InputError, UncertifiedProfileError
from dynaperc.torus import TorusGraph

from helpers import (assert_profiles_close, lazy, loop_profile_from_values, phi_env,
                     random_pi, random_reversible_kernel, scalar_mass)


def test_q_flow_and_phi_basic():
    pi = np.array([0.5, 0.5])
    K = np.array([[0.75, 0.25], [0.25, 0.75]])
    first = np.array([True, False])
    assert X.q_flow(K, pi, first, ~first) == pytest.approx(0.125)
    assert X.expansion_phi(K, pi, first) == pytest.approx(0.25)
    with pytest.raises(InputError):
        X.expansion_phi(K, pi, np.zeros(2, dtype=bool))


def _path4():
    """Walk on the 4-state path 0-1-2-3 that holds at the ends; pi uniform."""
    K = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0],
                  [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.5, 0.5]])
    return K, np.full(4, 0.25)


def test_phi_reads_a_mask_not_indices():
    # phi({0, 2}) = 0.75, where reading [1, 0, 1, 0] as indices gives phi({0, 1}) = 0.25
    K, pi = _path4()
    assert X.expansion_phi(K, pi, np.array([True, False, True, False])) == pytest.approx(0.75)
    assert X.expansion_phi(K, pi, np.array([True, True, False, False])) == pytest.approx(0.25)
    with pytest.raises(InputError):  # an int 0/1 vector is not a set
        X.expansion_phi(K, pi, np.array([1, 0, 1, 0]))


@pytest.mark.parametrize("S", [np.array([1, 0, 1, 0]),             # int 0/1 vector
                               [0, 2],                             # index list
                               np.array([True, False, True])])     # wrong length
def test_set_functions_reject_malformed_sets(S):
    K, pi = _path4()
    with pytest.raises(InputError):
        X.expansion_phi(K, pi, S)
    with pytest.raises(InputError):
        X.q_flow(K, pi, S, np.ones(4, dtype=bool))
    with pytest.raises(InputError):
        X.q_flow(K, pi, np.ones(4, dtype=bool), S)


@pytest.mark.parametrize("S", [(np.arange(8) < 4).astype(int), [0, 1, 2, 3],
                               np.arange(7) < 3, np.zeros(8, dtype=bool)])
def test_torus_phi_check_rejects_malformed_sets(S):
    # the empty set has no boundary edges to take an open fraction of
    g = TorusGraph(d=1, n=8)
    env = sample_env(g, DynParams(p=0.5, mu=0.25, horizon=10.0),
                     init="stationary", seed=5)
    with pytest.raises(InputError):
        X.torus_phi_lower_bound_check(env, S)


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 24, 62])
def test_mask_members_reads_bit_y_into_column_y(m):
    rng = np.random.default_rng(m)
    masks = rng.integers(0, 1 << 62, size=(3, 5), dtype=np.int64)
    masks[0, :3] = [0, 1, (1 << 62) - 1]
    want = (masks[..., None] >> np.arange(m)) & 1 == 1
    got = X.mask_members(masks, m)
    assert got.dtype == bool and np.array_equal(got, want)
    assert np.array_equal(X.mask_members(masks[:, 1], m), want[:, 1])
    assert np.array_equal(X.mask_members(int(masks[2, 3]), m), want[2, 3])


def test_q_flow_symmetric_for_reversible():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pi = random_pi(rng, 5)
        K = random_reversible_kernel(rng, pi)
        S = rng.random(5) < 0.5
        if not S.any() or S.all():
            continue
        assert X.q_flow(K, pi, S, ~S) == pytest.approx(X.q_flow(K, pi, ~S, S), abs=1e-12)


def test_phi_env_is_mixture():
    rng = np.random.default_rng(1)
    pi = random_pi(rng, 4)
    Ks = [random_reversible_kernel(rng, pi) for _ in range(3)]
    R_row = np.array([0.2, 0.5, 0.3])
    S = np.array([True, False, True, False])
    direct = sum(w * X.expansion_phi(K, pi, S) for w, K in zip(R_row, Ks))
    assert phi_env(R_row, Ks, pi, S) == pytest.approx(direct)


def test_profile_validation():
    with pytest.raises(InputError):
        X.ExpansionProfile(np.array([0.1, 0.05]), np.array([1.0, 1.0]),
                           "exact-enumerated", 0.05)
    with pytest.raises(InputError):
        X.ExpansionProfile(np.array([0.05, 0.1]), np.array([0.5, 0.9]),
                           "exact-enumerated", 0.05)
    with pytest.raises(InputError):
        X.ExpansionProfile(np.array([0.05]), np.array([0.5]), "mystery", 0.05)


def test_profile_running_infimum():
    prof = X.profile_from_values([0.4, 0.1, 0.25], [0.3, 0.9, 0.5],
                                 "exact-enumerated", 0.1)
    assert prof.value(0.1) == 0.9
    assert prof.value(0.3) == 0.5
    assert prof.value(0.45) == 0.3
    assert prof.value(0.9) == prof.value(0.5)  # constant above 1/2
    assert prof.value(0.0) == prof.value(0.1)  # clamped below first knot


def _profile_inputs(kind, rng):
    """(masses, values) of one kind of input to `profile_from_values`."""
    if kind == "random":
        masses = rng.random(300) * 0.6
    elif kind == "uniform-pi":  # exact ties: every set of k states has one mass
        masses = X._subset_masses(np.arange(1, 1 << 10), np.full(10, 0.1))
    elif kind == "near-tie-chains":  # runs 4e-16 apart chain past 1e-15
        base = rng.random(12) * 0.45
        masses = (base[:, None] + 4e-16 * np.arange(9)).ravel()
    elif kind == "ulp-steps":  # masses one ulp apart around each 1e-15 step
        # near 0.003, m + 1e-15 rounds up, so m + 1e-15 - m >= 1e-15
        start = rng.choice([0.3, 0.003]) * (1.0 + 2.3e-16 * np.arange(-3, 4))
        masses = (start[:, None] + np.arange(0, 6e-15, 1e-15)).ravel()
        masses = np.concatenate([masses, np.nextafter(masses, 1.0)])
    else:  # a single set
        masses = rng.random(1) * 0.5
    values = rng.random(len(masses))
    if kind != "random":
        values = np.sort(values)[::-1] if rng.random() < 0.5 else values
    return rng.permutation(masses), values


@pytest.mark.parametrize("kind", ["random", "uniform-pi", "near-tie-chains", "ulp-steps",
                                  "single"])
def test_profile_from_values_matches_the_loop(kind):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        masses, values = _profile_inputs(kind, rng)
        got = X.profile_from_values(masses, values, "exact-enumerated", 0.01)
        want = loop_profile_from_values(masses, values, "exact-enumerated", 0.01)
        assert got.knots.tolist() == want.knots.tolist()
        assert got.values.tolist() == want.values.tolist()


def test_profile_knots_follow_a_chain_of_near_ties():
    # each mass is within 1e-15 of the one before it, but the chain is not:
    # a knot starts at the first mass at least 1e-15 above the knot's start
    masses = 0.2 + 4e-16 * np.arange(8)
    prof = X.profile_from_values(masses, np.linspace(0.9, 0.2, 8), "exact-enumerated", 0.1)
    starts = [0]
    for i, m in enumerate(masses):
        if m - masses[starts[-1]] >= 1e-15:
            starts.append(i)
    assert len(starts) == 3
    assert prof.knots.tolist() == masses[starts].tolist()


def test_profile_serialize_roundtrip():
    prof = X.profile_from_values([0.125, 0.25, 0.5], [0.8, 0.5, 0.25],
                                 "exact-enumerated", 0.125)
    back = X.ExpansionProfile.deserialize(prof.serialize())
    assert np.array_equal(back.knots, prof.knots)
    assert np.array_equal(back.values, prof.values)
    assert back.provenance == prof.provenance and back.pi_star == prof.pi_star
    with pytest.raises(InputError):
        X.ExpansionProfile.deserialize("garbage\n1 2\n")


def test_profile_phi_env_monotone():
    rng = np.random.default_rng(3)
    pi = random_pi(rng, 5)
    Ks = [random_reversible_kernel(rng, pi) for _ in range(2)]
    R = np.array([[0.5, 0.5], [0.3, 0.7]])
    prof = L.profile_phi_env(R, Ks, pi)
    assert prof.certified
    assert np.all(np.diff(prof.values) <= 1e-12)
    # the profile value at a set's mass lower-bounds that set's phi_env
    for bits in range(1, 1 << 5):
        mask = np.array([(bits >> i) & 1 for i in range(5)], dtype=bool)
        mass = pi[mask].sum()
        if mass > 0.5:
            continue
        val = min(phi_env(R[z], Ks, pi, mask) for z in range(2))
        assert prof.value(mass) <= val + 1e-12


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_profile_integral_matches_quadrature(seed):
    rng = np.random.default_rng(seed)
    k = rng.integers(2, 6)
    knots = np.sort(rng.uniform(1e-3, 0.5, size=k))
    while len(np.unique(knots)) < k:
        knots = np.sort(rng.uniform(1e-3, 0.5, size=k))
    values = np.sort(rng.uniform(0.05, 1.0, size=k))[::-1]
    prof = X.ExpansionProfile(knots, values, "exact-enumerated", float(knots[0]))
    lo, hi = float(knots[0]), 4.0
    closed = X.profile_integral(prof, lo, hi, power=2)
    quad, err = integrate.quad(lambda u: 1.0 / (u * prof.value(u) ** 2), lo, hi,
                               points=list(knots) + [0.5], limit=200)
    assert abs(closed - quad) < 1e-9 + 10 * err


def test_integral_mixing_bound_gates():
    prof = X.profile_from_values([0.25, 0.5], [0.5, 0.25], "exact-enumerated", 0.25)
    n = X.integral_mixing_bound(prof, gamma=0.5, pi_x=0.25, eps=0.1)
    expect = 1.0 + 2.0 * X.profile_integral(prof, 1.0, 40.0, 2)
    assert n == math.ceil(expect - 1e-9)
    with pytest.raises(InputError):
        X.integral_mixing_bound(prof, gamma=0.7, pi_x=0.25, eps=0.1)
    diag = X.profile_from_values([0.25, 0.5], [0.5, 0.25], "family-restricted", 0.25)
    with pytest.raises(UncertifiedProfileError):
        X.integral_mixing_bound(diag, gamma=0.5, pi_x=0.25, eps=0.1)


def test_torus_analytic_profile_shape():
    d, n, mu, c = 1, 16, 0.125, 0.1
    prof = X.torus_analytic_profile(d, n, mu, c)
    assert prof.certified and prof.pi_star == 1.0 / 16
    # pointwise lower bound on the analytic curve
    for u in np.linspace(1.0 / 16, 0.5, 40):
        assert prof.value(u) <= c * mu ** 2 / (n * u ** (1.0 / d)) + 1e-15
    # integral bound scales like (n/mu^2)^2 log(1/eps) within discretization slack
    for eps in (0.1, 0.01):
        steps = X.integral_mixing_bound(prof, 0.5, 1.0 / n ** d, eps)
        # int u^(2/d - 1) du over [4/n^d, 1/2] plus the constant tail to 4/eps
        analytic = 1.0 + 2.0 * (n / (c * mu ** 2)) ** 2 * (
            (d / 2.0) * (0.5 ** (2.0 / d) - (4.0 / n ** d) ** (2.0 / d))
            + 0.5 ** (2.0 / d) * math.log(8.0 / eps))
        assert analytic / 2 <= steps <= analytic * 2


def test_torus_phi_lower_bound_record():
    g = TorusGraph(d=1, n=8)
    env = sample_env(g, DynParams(p=0.5, mu=0.25, horizon=10.0),
                     init="stationary", seed=5)
    S = np.arange(8) < 4
    rec = X.torus_phi_lower_bound_check(env, S)
    assert 0.0 <= rec.phi <= 1.0
    assert rec.pi_S == 0.5
    if rec.vacuous:
        assert rec.beta == 0.0 and rec.ratio is None
    else:
        assert rec.ratio == pytest.approx(rec.phi * 8 * 0.5 / rec.beta)


def _members(mask, m):
    return np.array([(mask >> y) & 1 for y in range(m)], dtype=bool)


@pytest.mark.parametrize("m", [6, 7, 8])
def test_phi_profiles_match_per_mask_loops(m):
    # a lazy uniform kernel ties every Q(S, y) / pi(y) inside S and inside S^c
    rng = np.random.default_rng(m)
    pi = random_pi(rng, m)
    kernels = (random_reversible_kernel(rng, pi), lazy(np.tile(pi, (m, 1))), np.eye(m))
    R = np.array([[0.0, 0.7, 0.3], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    masses, phis, envs = [], [], []
    for mask in range(1, 1 << m):
        S = _members(mask, m)
        if pi[S].sum() <= 0.5 + 1e-12:
            masses.append(pi[S].sum())
            phis.append(min(X.expansion_phi(K, pi, S) for K in kernels[:2]))
            envs.append(min(phi_env(R[z], kernels, pi, S) for z in range(3)))
    ref = X.profile_from_values(masses, phis, "exact-enumerated", float(pi.min()))
    assert_profiles_close(X.profile_phi_kernels(kernels[:2], pi), ref, 1e-13)
    ref = X.profile_from_values(masses, envs, "exact-enumerated", float(pi.min()))
    assert_profiles_close(L.profile_phi_env(R, kernels, pi), ref, 1e-13)


_PROFILE_TEXT = X.profile_from_values(
    [0.125, 0.25, 0.5], [0.8, 0.5, 0.25], "exact-enumerated", 0.125).serialize()


@given(cut=st.integers(0, len(_PROFILE_TEXT)),
       noise=st.text(alphabet="0123456789.e-= \nabnipr_#", max_size=40))
@settings(max_examples=300, deadline=None)
def test_profile_deserialize_fuzz(cut, noise):
    # truncated or corrupted text either loads as a valid profile or raises InputError
    for text in (_PROFILE_TEXT[:cut], _PROFILE_TEXT[:cut] + noise, noise):
        try:
            prof = X.ExpansionProfile.deserialize(text)
        except InputError:
            continue
        assert np.isfinite(prof.knots).all() and np.isfinite(prof.values).all()
        assert 0.0 < prof.pi_star <= 1.0


def test_subset_chunks_do_not_change_profiles(monkeypatch):
    # chunks of 4 masks: the 255 subsets of 8 states span 64 chunks
    from dynaperc.evoset import psi_profile_kernels
    from dynaperc.torus import iso_profile

    rng = np.random.default_rng(8)
    pi = random_pi(rng, 8)
    kernels = (random_reversible_kernel(rng, pi), lazy(np.tile(pi, (8, 1))))
    cycle = TorusGraph(d=1, n=8)

    def run():
        return (iso_profile(cycle), psi_profile_kernels(kernels, pi),
                X.profile_phi_kernels(kernels, pi))

    default = run()
    monkeypatch.setattr(X, "SUBSET_CHUNK_BITS", 2)
    chunked = run()
    assert chunked[0].value == default[0].value
    assert np.array_equal(chunked[0].minimizer, default[0].minimizer)
    for a, b in zip(chunked[1:], default[1:]):
        assert np.array_equal(a.knots, b.knots) and np.array_equal(a.values, b.values)


@given(m=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_one_mass_per_set(m, seed):
    # at every chunk size, the enumerator, set_mass on an array and on one
    # mask, and the table of the Doob and psi mass ratios give a mask one
    # float: its members' pi summed in increasing state order
    rng = np.random.default_rng(seed)
    pi = random_pi(rng, m)
    every = np.arange(1 << m)
    want = np.array([scalar_mass(mask, pi) for mask in range(1 << m)])
    half = np.flatnonzero(want <= 0.5 + 1e-12)[1:]  # nonempty, mass <= 1/2
    singles = rng.integers(0, 1 << m, 8).tolist() + [0, (1 << m) - 1]
    for bits in range(1, m + 1):
        with mock.patch.object(X, "SUBSET_CHUNK_BITS", bits):
            chunks = list(X.half_mass_subsets(pi))
            masks = np.concatenate([np.empty(0, np.int64)] + [c[0] for c in chunks])
            masses = np.concatenate([np.empty(0)] + [c[1] for c in chunks])
            assert np.array_equal(masks, half)
            assert np.array_equal(masses, want[half])
            assert np.array_equal(E.set_mass(every, pi), want)
            assert [E.set_mass(mask, pi) for mask in singles] == want[singles].tolist()
            ratios = E._mass_ratios(np.array([1]), every[None], pi)[0]
            assert np.array_equal(ratios, want / want[1])


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc, which numpy reports its buffers to,
    while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_subset_enumeration_builds_no_membership_table():
    # a float membership table of the 2^16 subsets of 16 states alone takes
    # 8 MB; masks, masses and one table of 2^16 masses stay well under 5 MB
    from dynaperc.torus import iso_profile

    cycle = TorusGraph(d=1, n=16)
    cycle.neighbor_vertices  # the torus's cached tables are built outside the count
    pi = np.full(16, 1.0 / 16)
    assert _traced_peak(lambda: iso_profile(cycle)) <= 5 * 2 ** 20
    assert _traced_peak(
        lambda: collections.deque(X.half_mass_subsets(pi), maxlen=0)) <= 5 * 2 ** 20


_BAD_CHAINS = {  # (pi, kernels)
    "zero-state": ([0.5, 0.5, 0.0], [np.eye(3)]),
    "pi-sums-to-2": ([2 / 3] * 3, [np.eye(3)]),
    "kernel-of-2-states": ([1 / 3] * 3, [np.eye(2)]),
    "no-kernels": ([1 / 3] * 3, []),
}


_PROFILES = {
    "psi_profile_kernels": lambda R, kernels, pi: E.psi_profile_kernels(kernels, pi),
    "profile_phi_kernels": lambda R, kernels, pi: X.profile_phi_kernels(kernels, pi),
    "profile_phi_env": L.profile_phi_env,
}


@pytest.mark.parametrize("chain", sorted(_BAD_CHAINS))
@pytest.mark.parametrize("profile", sorted(_PROFILES))
def test_exact_profiles_refuse_bad_chains(profile, chain, monkeypatch):
    # refused at entry, before any subset is enumerated (a zero state gave a
    # NaN profile, a kernel of the wrong size a numpy error)
    monkeypatch.setattr(X, "half_mass_subsets", None)
    pi, kernels = _BAD_CHAINS[chain]
    with pytest.raises(InputError):
        _PROFILES[profile](np.eye(max(len(kernels), 1)), kernels, np.array(pi))


@pytest.mark.parametrize("R", [[[2.0]], [[0.5, 0.4], [0.5, 0.5]], [[1.0, 0.0]],
                               [[np.nan]], [[1.5, -0.5], [0.5, 0.5]]],
                         ids=["row-sum-2", "row-sum-0.9", "not-square", "nan",
                              "negative"])
def test_profile_phi_env_refuses_a_bad_environment_matrix(R, monkeypatch):
    # R = [[2.0]] gave phi = 1.33
    monkeypatch.setattr(X, "half_mass_subsets", None)
    pi = np.full(3, 1.0 / 3)
    with pytest.raises(InputError):
        L.profile_phi_env(np.array(R), [np.eye(3)] * len(R), pi)
