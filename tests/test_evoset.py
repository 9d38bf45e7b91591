import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaperc import evoset as E
from dynaperc.errors import CapabilityError, InputError
from dynaperc.expansion import expansion_phi, profile_from_values

from helpers import (assert_profiles_close, dict_propagate_set_law, dict_z_expectations,
                     evolve_step, lazy, marginal_identity_check, random_pi,
                     random_kernels, random_reversible_kernel, scalar_mass, scalar_psi,
                     scalar_step_law)


def _chain(seed, m=4, k=3, activity=0.4):
    rng = np.random.default_rng(seed)
    pi = random_pi(rng, m)
    return E.InhomChain(pi=pi, kernels=random_kernels(rng, pi, k, activity))


def test_chain_validation():
    with pytest.raises(InputError):
        E.InhomChain(pi=np.array([0.5, 0.5, 0.0]), kernels=(np.eye(3),))
    pi = np.array([0.3, 0.7])
    bad = np.array([[0.5, 0.5], [0.9, 0.1]])  # rows ok, pi not stationary
    with pytest.raises(InputError):
        E.InhomChain(pi=pi, kernels=(bad,))


def test_chain_validates_each_distinct_kernel_once(monkeypatch):
    checked = []
    check = E._check_kernel
    monkeypatch.setattr(E, "_check_kernel", lambda K, pi: checked.append(K) or check(K, pi))
    pi = np.array([0.3, 0.7])
    good = np.array([[0.65, 0.35], [0.15, 0.85]])
    bad = np.array([[0.5, 0.5], [0.9, 0.1]])  # rows ok, pi not stationary
    with pytest.raises(InputError):
        E.InhomChain(pi=pi, kernels=(good,) * 50 + (bad,))
    assert len(checked) == 2 and checked[0] is good
    checked.clear()
    other = np.array([[0.3, 0.7], [0.3, 0.7]])
    E.InhomChain(pi=pi, kernels=(good, good.copy(), other, good.copy(), other))
    assert len(checked) == 2 and checked[0] is good and checked[1] is other


def test_mask_helpers():
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    assert E.set_mass(0b1010, pi) == pytest.approx(0.6)
    assert E.z_statistic(0b0001, pi) == pytest.approx(math.sqrt(0.1) / 0.1)
    # above half mass, the sharp set flips to the complement
    assert E.z_statistic(0b1110, pi) == pytest.approx(math.sqrt(0.1) / 0.9)
    with pytest.raises(InputError):
        E.z_statistic(0, pi)


def test_evolve_step_extremes():
    chain = _chain(0)
    K, pi = chain.kernels[0], chain.pi
    full = (1 << 4) - 1
    assert evolve_step(0b0011, K, pi, 0.0) == full  # U = 0 keeps everything
    assert evolve_step(0, K, pi, 0.5) == 0          # empty set is absorbing
    assert evolve_step(full, K, pi, 0.5) == full    # ratios are all 1


@given(seed=st.integers(0, 10 ** 6), mask=st.integers(1, 14))
@settings(max_examples=100, deadline=None)
def test_step_law_martingale(seed, mask):
    chain = _chain(seed)
    K, pi = chain.kernels[0], chain.pi
    law = E.step_law(mask, K, pi)
    assert abs(sum(p for _, p in law.entries) - 1.0) < 1e-12
    assert abs(law.mean_mass(pi) - E.set_mass(mask, pi)) < 1e-12


@given(seed=st.integers(0, 10 ** 6), mask=st.integers(1, 14))
@settings(max_examples=100, deadline=None)
def test_doob_normalization(seed, mask):
    chain = _chain(seed)
    K, pi = chain.kernels[0], chain.pi
    law = E.doob_step_law(mask, K, pi)
    assert abs(sum(p for _, p in law.entries) - 1.0) < 1e-12
    assert all(s != 0 for s, _ in law.entries)


def test_step_law_consistent_with_threshold_rule():
    chain = _chain(5)
    K, pi = chain.kernels[0], chain.pi
    mask = 0b0101
    law = dict(E.step_law(mask, K, pi).entries)
    # empirical frequencies of the threshold map match the exact law
    rng = np.random.default_rng(0)
    counts = {}
    n = 20000
    for _ in range(n):
        s = evolve_step(mask, K, pi, float(rng.random()))
        counts[s] = counts.get(s, 0) + 1
    for s, p in law.items():
        emp = counts.get(s, 0) / n
        assert abs(emp - p) < 4 * math.sqrt(p * (1 - p) / n) + 1e-3


@given(seed=st.integers(0, 10 ** 6), mask=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_complement_duality(seed, mask):
    chain = _chain(seed, m=3)
    K, pi = chain.kernels[0], chain.pi
    full = (1 << 3) - 1
    comp = full & ~mask
    if comp == 0:
        return
    r = E._ratios(mask, K, pi)
    rc = E._ratios(comp, K, pi)
    assert np.abs(r + rc - 1.0).max() < 1e-12


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_psi_phi_inequality(seed):
    # psi >= gamma^2 / (2 (1-gamma)^2) * phi^2 for every set of any mass
    chain = _chain(seed, m=4, k=1, activity=0.4)
    K, pi = chain.kernels[0], chain.pi
    gamma = min(float(np.diag(K).min()), 0.5)  # the bound is stated for gamma <= 1/2
    assert gamma > 0
    factor = gamma ** 2 / (2.0 * (1.0 - gamma) ** 2)
    for mask in range(1, 1 << 4):
        psi = E.expected_sqrt_ratio(mask, K, pi)
        phi = expansion_phi(K, pi, E.mask_members(mask, 4))
        assert psi >= factor * phi ** 2 - 1e-12


def test_propagate_set_law_and_doob_consistency():
    chain = _chain(9, k=4)
    pi = chain.pi
    plain, _ = E.propagate_set_law(chain.kernels, pi, 0b0001, prune=0.0)
    doob, _ = E.propagate_set_law(chain.kernels, pi, 0b0001, doob=True, prune=0.0)
    assert plain.shape == doob.shape == (5, 16)
    assert (doob[:, 0] == 0.0).all()
    # importance weights recover the plain law restricted to survival
    mass0 = E.set_mass(0b0001, pi)
    importance = mass0 / E.set_mass(np.arange(1, 16), pi)
    for k in range(5):
        assert doob[k, 1:] @ importance == pytest.approx(plain[k, 1:].sum(), abs=1e-12)


@pytest.mark.parametrize("prune", [0.0, 1e-15])
@pytest.mark.parametrize("doob", [False, True])
@pytest.mark.parametrize("repeat", [False, True])
def test_propagate_set_law_matches_dict_reference(repeat, doob, prune):
    # 3-5 states; six distinct kernels, or one kernel repeated eight times
    for seed in range(9):
        rng = np.random.default_rng(seed)
        m = 3 + seed % 3
        pi = random_pi(rng, m)
        kernels = random_kernels(rng, pi, 1 if repeat else 6, activity=0.9)
        if repeat:
            kernels = kernels * 8
        s0 = 1 << int(rng.integers(m))
        got, got_pruned = E.propagate_set_law(kernels, pi, s0, doob=doob, prune=prune)
        want, want_pruned = dict_propagate_set_law(kernels, pi, s0, doob=doob, prune=prune)
        assert got.shape == (len(want), 1 << m)
        for g, w in zip(got, want):
            live = np.flatnonzero(g)
            assert dict(zip(live.tolist(), g[live].tolist())) == w  # bit for bit
        assert abs(got_pruned - want_pruned) <= 1e-15


def test_doob_z_bound_check_computes_each_law_once(monkeypatch):
    # one threshold table for the one distinct kernel, one row per nonempty set
    rng = np.random.default_rng(21)
    m = 4
    pi = random_pi(rng, m)
    K = lazy(random_reversible_kernel(rng, pi))
    calls = []
    threshold = E._threshold
    monkeypatch.setattr(E, "_threshold",
                        lambda masks, K, pi: calls.append(list(masks)) or threshold(masks, K, pi))
    E.doob_z_bound_check(E.InhomChain(pi=pi, kernels=(K,) * 30), x=0)
    assert calls == [list(range(1, 2 ** m))]


def test_marginal_identity_exact():
    for seed in range(20):
        chain = _chain(100 + seed, m=5, k=6)
        err = marginal_identity_check(chain, x=0, k=6)
        assert err < 1e-9


def test_state_cap():
    pi = np.full(15, 1.0 / 15)
    with pytest.raises(CapabilityError):
        E.propagate_set_law((np.eye(15),), pi, 1)


def test_psi_profile_and_step_count():
    chain = _chain(11, m=4, k=1)
    prof = E.psi_profile_kernels(chain.kernels, chain.pi)
    assert prof.certified
    n = E.psi_step_count(chain, x=0, eps=0.1)
    from dynaperc.expansion import profile_integral
    integral = profile_integral(prof, 4.0 * float(chain.pi[0]), 40.0, power=1)
    assert n == math.ceil(integral - 1e-9)


def test_doob_z_bound_check_passes():
    rng = np.random.default_rng(13)
    pi = random_pi(rng, 4)
    K = random_reversible_kernel(rng, pi)
    steps = E.psi_step_count(E.InhomChain(pi=pi, kernels=(K,)), 0, 0.1)
    chain = E.InhomChain(pi=pi, kernels=(K,) * steps)
    rep = E.doob_z_bound_check(chain, x=0, eps=0.1)
    assert rep.chi_ok
    assert rep.z_bound_ok
    assert rep.z_at_psi_steps <= math.sqrt(0.1) + 1e-9
    # Z expectations start at the single-state value and decay
    assert rep.z_expectations[0] == pytest.approx(E.z_statistic(1, pi))
    assert rep.z_expectations[-1] <= rep.z_expectations[0]


def _psi_profile_by_mask(kernels, pi):
    """Per-mask reference for psi_profile_kernels."""
    masses, psis = [], []
    for mask in range(1, 1 << len(pi)):
        mass = E.set_mass(mask, pi)
        if mass <= 0.5 + 1e-12:
            masses.append(mass)
            psis.append(min(scalar_psi(mask, K, pi) for K in kernels))
    return profile_from_values(masses, psis, "exact-enumerated", float(pi.min()))


@pytest.mark.parametrize("kinds", [("random",), ("identity",), ("uniform",),
                                   ("lazy-uniform",), ("random", "lazy-uniform")])
@pytest.mark.parametrize("m", [6, 8])
def test_psi_profile_matches_per_mask_loop(kinds, m):
    # identity and uniform kernels tie many ratios Q(S, y) / pi(y)
    rng = np.random.default_rng(m)
    pi = random_pi(rng, m)
    make = {"random": lambda: random_reversible_kernel(rng, pi),
            "identity": lambda: np.eye(m),
            "uniform": lambda: np.tile(pi, (m, 1)),
            "lazy-uniform": lambda: lazy(np.tile(pi, (m, 1)))}
    kernels = tuple(make[k]() for k in kinds)
    assert_profiles_close(E.psi_profile_kernels(kernels, pi),
                          _psi_profile_by_mask(kernels, pi), 1e-13)


def test_psi_profile_rejects_ratio_above_one():
    # pi is not stationary for K: Q({1, 2}, 0) / pi(0) = 2
    pi = np.full(4, 0.25)
    K = np.zeros((4, 4))
    K[:, 0] = 1.0
    with pytest.raises(InputError):
        E.psi_profile_kernels((K,), pi)


def _kernels_with_ties(rng, pi):
    """A random kernel, and identity and uniform kernels, whose ratios
    Q(S, y) / pi(y) tie."""
    m = len(pi)
    return {"random": random_reversible_kernel(rng, pi, activity=0.9),
            "identity": np.eye(m), "uniform": np.tile(pi, (m, 1))}


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("doob", [False, True])
def test_law_table_rows_equal_one_set_laws(m, doob):
    # every row of the table, for every mask, is the one-set law bit for bit
    rng = np.random.default_rng(100 + m)
    pi = random_pi(rng, m)
    kernels = list(_kernels_with_ties(rng, pi).values())
    transitions, which = E.set_law_table(kernels, pi, doob)
    assert which == [0, 1, 2]
    law = E.doob_step_law if doob else E.step_law
    for K, (rows, cols, vals) in zip(kernels, transitions):
        starts = np.searchsorted(rows, np.arange((1 << m) + 1))
        for mask in range(int(doob), 1 << m):
            lo, hi = starts[mask], starts[mask + 1]
            row = tuple(zip(cols[lo:hi].tolist(), vals[lo:hi].tolist()))
            assert row == law(mask, K, pi).entries, mask


def _distinct_stack(rng, pi, count):
    """`count` kernels: the ones with tied ratios first, then random ones."""
    kernels = list(_kernels_with_ties(rng, pi).values())[1:]
    kernels.insert(0, random_reversible_kernel(rng, pi, activity=0.9))
    while len(kernels) < count:
        kernels.append(random_reversible_kernel(rng, pi))
    return kernels[:count]


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("doob", [False, True])
def test_stacked_tables_equal_one_kernel_tables(count, m, doob):
    # one threshold pass over a stack of kernels keeps each kernel's bits
    rng = np.random.default_rng(300 + 10 * m + count)
    pi = random_pi(rng, m)
    kernels = _distinct_stack(rng, pi, count)
    transitions, which = E.set_law_table(kernels + kernels[::-1], pi, doob)
    assert which == list(range(count)) + list(range(count))[::-1]
    masks = np.arange(1, 1 << m)
    psis = E._psi(masks, np.stack(kernels), pi)
    for K, got, psi in zip(kernels, transitions, psis):
        (want,), _ = E.set_law_table([K], pi, doob)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(psi, E._psi(masks, K, pi))
        assert psi.tolist() == [E.expected_sqrt_ratio(mask, K, pi) for mask in range(1, 1 << m)]


@pytest.mark.parametrize("doob", [False, True])
def test_stacked_law_rows_equal_one_set_laws_at_11_states(doob):
    rng = np.random.default_rng(11)
    m = 11
    pi = random_pi(rng, m)
    kernels = _distinct_stack(rng, pi, 3)
    masks = rng.choice(np.arange(1, 1 << m), size=300, replace=False)
    sets, probs, keep = E._law_table(masks, np.stack(kernels), pi, doob)
    psis = E._psi(masks, np.stack(kernels), pi)
    law = E.doob_step_law if doob else E.step_law
    for j, K in enumerate(kernels):
        for i, mask in enumerate(masks.tolist()):
            row = tuple(zip(sets[j, i][keep[j, i]].tolist(), probs[j, i][keep[j, i]].tolist()))
            assert row == law(mask, K, pi).entries
            assert psis[j, i] == E.expected_sqrt_ratio(mask, K, pi)


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("distinct", [1, 3])
def test_z_expectations_equal_sequential_dict_sums(m, distinct):
    # the cumsum over each step's weight row adds the same terms in the same
    # order as a Python sum over the step's dict law; pruning is on
    rng = np.random.default_rng(40 + m + distinct)
    pi = random_pi(rng, m)
    kernels = random_kernels(rng, pi, distinct, activity=0.9)
    chain = E.InhomChain(pi=pi, kernels=kernels * (24 // distinct))
    rep = E.doob_z_bound_check(chain, x=1)
    assert rep.z_expectations.tolist() == dict_z_expectations(chain, 1)


def test_distinct_kernels_match_repeated_objects_by_identity(monkeypatch):
    rng = np.random.default_rng(5)
    pi = random_pi(rng, 4)
    A, B = random_kernels(rng, pi, 2)
    compared = []
    equal = np.array_equal
    monkeypatch.setattr(E.np, "array_equal",
                        lambda a, b: compared.append(1) or equal(a, b))
    uniq, which = E._distinct_kernels([A] * 80 + [K for _ in range(5) for K in (B, A.copy(), B)])
    assert len(uniq) == 2 and uniq[0] is A and uniq[1] is B
    assert which == [0] * 80 + [1, 0, 1] * 5
    # B against A once; each of the five copies of A against A once
    assert len(compared) == 6
    # fresh arrays, freed once matched, are held so that no id is reused
    uniq, which = E._distinct_kernels(np.full((2, 2), float(i % 7)) for i in range(40))
    assert len(uniq) == 7 and which == [i % 7 for i in range(40)]


@pytest.mark.parametrize("m", [3, 14, 20])
def test_few_masses_read_no_table(m, monkeypatch):
    # a one-set law reads the masses of its set and level sets, the same
    # floats as the table of every subset mass
    from dynaperc import expansion as X
    rng = np.random.default_rng(m)
    pi = random_pi(rng, m)
    few = rng.integers(0, 1 << m, size=2 + (m > 3))
    table = X._subset_masses(np.arange(1 << m), pi)
    monkeypatch.setattr(X, "_mass_table", None)
    assert X._subset_masses(few, pi).tolist() == table[few].tolist()
    assert X._subset_masses(few, pi).tolist() == [scalar_mass(int(s), pi) for s in few]
    if 3 < m <= E.SET_LAW_MAX_STATES:  # at 3 states the table is the cheaper read
        K = lazy(random_reversible_kernel(rng, pi))
        mask = int(few[-1]) | 1
        law = E.doob_step_law(mask, K, pi)
        monkeypatch.undo()
        gaps, tops = E._threshold(np.array([mask]), K, pi)
        ratios = table[tops[0]] / table[mask]
        assert [p for _, p in law.entries] == [p for p in (gaps[0] * ratios).tolist() if p > 0]


@pytest.mark.parametrize("doob", [False, True])
def test_one_set_laws_match_scalar_reference(doob):
    rng = np.random.default_rng(7)
    for m in (3, 5, 8):
        pi = random_pi(rng, m)
        for K in _kernels_with_ties(rng, pi).values():
            for mask in range(int(doob), 1 << m):
                law = E.doob_step_law(mask, K, pi) if doob else E.step_law(mask, K, pi)
                want = scalar_step_law(mask, K, pi, doob)
                assert [s for s, _ in law.entries] == [s for s, _ in want]
                assert np.allclose([p for _, p in law.entries], [p for _, p in want],
                                   rtol=0.0, atol=1e-15)
                if mask:
                    assert abs(E.expected_sqrt_ratio(mask, K, pi)
                               - scalar_psi(mask, K, pi)) <= 1e-15


@pytest.mark.parametrize("mask", [1 << 4, 1 << 5, -1, 1.0, 0])
@pytest.mark.parametrize("fn", ["step_law", "doob_step_law", "expected_sqrt_ratio"])
def test_one_set_functions_reject_masks_outside_the_states(fn, mask):
    pi = np.full(4, 0.25)
    K = lazy(np.full((4, 4), 0.25))
    if fn == "step_law" and mask == 0:
        assert E.step_law(0, K, pi).entries == ((0, 1.0),)
        return
    with pytest.raises(InputError):
        getattr(E, fn)(mask, K, pi)


@pytest.mark.parametrize("s0, doob", [(1 << 4, False), (-1, False), (0, True)])
def test_propagate_set_law_rejects_a_bad_start(s0, doob):
    with pytest.raises(InputError):
        E.propagate_set_law((np.eye(4),), np.full(4, 0.25), s0, doob=doob)


@pytest.mark.parametrize("eps", [-0.1, 0.0, 1.0, 1.5, float("nan"), float("inf")])
def test_z_bound_functions_reject_eps_outside_unit_interval(eps, monkeypatch):
    chain = _chain(3, m=3, k=2)
    # refused before any propagation
    monkeypatch.setattr(E, "propagate_set_law", None)
    monkeypatch.setattr(E, "psi_profile_kernels", None)
    with pytest.raises(InputError):
        E.psi_step_count(chain, 0, eps)
    with pytest.raises(InputError):
        E.doob_z_bound_check(chain, 0, eps=eps)


@pytest.mark.parametrize("masks", [-1, 1 << 3, 1 << 5, 1.0, np.array([1, -1]),
                                   np.array([1, 1 << 3]), np.array([1.0])],
                         ids=["-1", "8", "32", "float", "array-with-minus-1",
                              "array-with-8", "float-array"])
@pytest.mark.parametrize("fn", ["set_mass", "z_statistic"])
def test_mass_functions_reject_masks_outside_the_states(fn, masks):
    # -1 read as the full set and 32 as the empty set, which z_statistic blamed
    with pytest.raises(InputError, match="bitmask"):
        getattr(E, fn)(masks, np.full(3, 1.0 / 3))
