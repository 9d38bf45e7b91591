"""Finite Markovian evolving environments: an environment chain R over states E
with one walk kernel per environment state, all sharing a full-support
stationary pi.

Hosts the annealed product chain, quenched laws along environment paths, the
quenched-vs-annealed counterexample (i.i.d. identity/swap kernels), the
laziness-coupled variant, the exact environment expansion profile
(`profile_phi_env`), and the end-to-end check of the quenched mixing bound
P(chi >= eps^(1/4)) <= eps^(1/4).  Walk states and environment states
are integer indices; one out of range is an `InputError`.

The exact certificate runs the Doob set process jointly with the environment,
as one flat transition over (subset, environment state) pairs: pair (S, z) is
z 2^m + S, with S the bitmask that indexes the law table of
`evoset.set_law_table`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import evoset
from .errors import InputError
from .expansion import (ExpansionProfile, _phi_table, enumerated_profile,
                        integral_mixing_bound)


@dataclass(frozen=True)
class FiniteEnvChain:
    """(E, R, {p_zeta}, pi): environment transition matrix plus per-state kernels."""

    R: np.ndarray
    kernels: tuple[np.ndarray, ...]
    pi: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.ndim != 2 or R.shape[0] != R.shape[1] or not np.isfinite(R).all():
            raise InputError("R must be a finite square matrix")
        pi, ks = evoset.check_chain(self.pi, self.kernels)
        if len(ks) != R.shape[0]:
            raise InputError("need one kernel per environment state")
        if np.abs(R.sum(axis=1) - 1.0).max() > 1e-12 or (R < -1e-15).any():
            raise InputError("R rows must be nonnegative and sum to 1")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "kernels", ks)
        object.__setattr__(self, "pi", pi)

    @property
    def n_env(self) -> int:
        return self.R.shape[0]

    @property
    def n_states(self) -> int:
        return len(self.pi)

    @property
    def gamma(self) -> float:
        """min over env states and walk states of the kernel diagonal."""
        return float(min(np.diag(K).min() for K in self.kernels))


@dataclass(frozen=True)
class AnnealedChain:
    """Product chain on E x S with Q((z,x),(z',x')) = R(z,z') p_{z'}(x,x')."""

    matrix: np.ndarray
    n_env: int
    n_states: int

    def index(self, zeta: int, x: int) -> int:
        return zeta * self.n_states + x


def annealed_kernel(chain: FiniteEnvChain) -> AnnealedChain:
    E, S = chain.n_env, chain.n_states
    Q = np.zeros((E * S, E * S))
    for z in range(E):
        for z2 in range(E):
            if chain.R[z, z2] > 0:
                Q[z * S:(z + 1) * S, z2 * S:(z2 + 1) * S] = chain.R[z, z2] * chain.kernels[z2]
    return AnnealedChain(matrix=Q, n_env=E, n_states=S)


def quenched_law(chain: FiniteEnvChain, path: Sequence[int], x0: int) -> np.ndarray:
    """delta_{x0} p_{zeta_1} ... p_{zeta_k}, exactly.

    `path` lists the environment states driving steps 1..k.  Off-R-support
    paths are allowed with a warning (quenched laws are defined for any eta).
    """
    evoset.start_mask(x0, chain.n_states)
    vec = np.zeros(chain.n_states)
    vec[x0] = 1.0
    prev = None
    for z in _env_states(chain, path).tolist():
        if prev is not None and chain.R[prev, z] == 0.0:
            warnings.warn("environment path leaves the support of R", stacklevel=2)
        vec = vec @ chain.kernels[z]
        prev = z
    return vec


def counterexample_chain() -> FiniteEnvChain:
    """I.i.d. identity/swap kernels on two walk states: annealed mixing in one
    step, quenched laws deterministic forever."""
    identity = np.eye(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    R = np.full((2, 2), 0.5)
    pi = np.array([0.5, 0.5])
    return FiniteEnvChain(R=R, kernels=(identity, swap), pi=pi)


def variant_chain(chain: FiniteEnvChain) -> FiniteEnvChain:
    """Laziness-coupled variant on the augmented environment E x {frozen, moving}.

    With probability 1/2 both walker and environment freeze (kernel = identity,
    underlying state unchanged); otherwise the environment steps by R and the
    walker uses the new state's kernel.  Augmented state 2*zeta + ell with
    ell = 1 meaning a real move.
    """
    E, S = chain.n_env, chain.n_states
    R2 = np.zeros((2 * E, 2 * E))
    kernels = []
    eye = np.eye(S)
    for z in range(E):
        for ell in range(2):
            i = 2 * z + ell
            R2[i, 2 * z + 0] += 0.5  # freeze: keep zeta, next ell = 0
            for z2 in range(E):
                R2[i, 2 * z2 + 1] += 0.5 * chain.R[z, z2]
    for z in range(E):
        kernels.append(eye)             # 2z + 0: frozen step
        kernels.append(chain.kernels[z])  # 2z + 1: real step
    return FiniteEnvChain(R=R2, kernels=tuple(kernels), pi=chain.pi)


def _env_states(chain: FiniteEnvChain, states) -> np.ndarray:
    """`states` as an int array; InputError unless every entry is an integer
    in [0, E)."""
    states = np.asarray(states)
    if states.size and (states.dtype.kind not in "iu" or states.min() < 0
                        or states.max() >= chain.n_env):
        raise InputError(f"environment states must be integers in [0, {chain.n_env})")
    return states


def sample_env_path(chain: FiniteEnvChain, zeta0: int, steps: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Environment states driving steps 1..`steps` from zeta0, drawn by R; a
    start outside the chain, or a step count that is not an integer >= 0,
    raises `InputError` before any draw."""
    z = int(_env_states(chain, [zeta0])[0])
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise InputError(f"steps must be an integer >= 0, got {steps!r}")
    path = np.empty(steps, dtype=np.int64)
    for k in range(steps):
        z = int(rng.choice(chain.n_env, p=chain.R[z]))
        path[k] = z
    return path


def profile_phi_env(R: np.ndarray, kernels: Sequence[np.ndarray],
                    pi: np.ndarray) -> ExpansionProfile:
    """Exact profile phi(r) = inf over env states and pi(S) <= r of
    phi(zeta, S) for the chain (R, kernels, pi); InputError unless it is a
    `FiniteEnvChain`."""
    return _phi_env_profile(FiniteEnvChain(R=R, kernels=kernels, pi=pi))


def _phi_env_profile(chain: FiniteEnvChain) -> ExpansionProfile:
    """`profile_phi_env` of a chain already checked."""
    pi, kernels = chain.pi, chain.kernels
    # phi(zeta, S) = sum over zeta' with R(zeta, zeta') > 0 of R(zeta, zeta') phi_zeta'(S)
    weights = np.maximum(chain.R, 0.0).T
    return enumerated_profile(
        pi, lambda masks, mass: (_phi_table(masks, mass, kernels, pi) @ weights).min(axis=1))


def _doob_z_certificates(chain: FiniteEnvChain, x: int, n: int) -> np.ndarray:
    """E over env paths from each zeta0 of E-hat[Z_n] for the Doob set process
    started at {x}: one entry per start state, by exact propagation over
    (subset, env state) pairs.

    The Doob laws come from one `evoset.set_law_table`: pair (S, z) is
    z 2^m + S, and the per-kernel arrays give the pair transition T as flat
    (z 2^m + r, z2 2^m + c, R(z, z2) v) arrays over the (z, z2) with R > 0.
    The expectation from every pair at once is T^n Z: by binary powering of
    T as a dense matrix up to `_DENSE_MAX_PAIRS` pairs, else by n bincount
    steps.
    """
    E, R, pi = chain.n_env, chain.R, chain.pi
    start = evoset.start_mask(x, chain.n_states)
    transitions, which = evoset.set_law_table(chain.kernels, pi, doob=True)
    M = 1 << chain.n_states
    parts = []
    for z, z2 in zip(*np.nonzero(R > 0)):
        r, c, v = transitions[which[z2]]
        parts.append((z * M + r, z2 * M + c, R[z, z2] * v))
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    # the Doob process never reaches the empty set, whose Z is undefined
    z_of = np.tile(np.append(0.0, evoset.z_statistic(np.arange(1, M), pi)), E)
    starts = M * np.arange(E) + start  # start zeta0 is pair ({x}, zeta0)
    if E * M <= _DENSE_MAX_PAIRS:
        T = np.zeros((E * M, E * M))
        T[rows, cols] = vals  # each (row, col) occurs once
        return np.linalg.matrix_power(T, n)[starts] @ z_of
    expect = z_of
    for _ in range(n):
        expect = np.bincount(rows, weights=vals * expect[cols], minlength=len(expect))
    return expect[starts]


# Largest pair count P = E 2^m whose pair transition is powered as a dense
# (P, P) matrix; above it the n bincount steps run.  Measured with one BLAS
# thread (numpy 2.4, 2-CPU x86-64 host): at P = 128 powering took 1.0-1.5x the
# loop's time at n = 6 and 0.2-0.3x at n = 700, with a transient peak under
# 1 MB; at P = 256 it took 1.5-6.3x at n <= 100.
_DENSE_MAX_PAIRS = 128


@dataclass(frozen=True)
class Theorem21Report:
    gamma: float
    steps: int
    threshold: float
    per_zeta_certificate: np.ndarray  # joint E-hat[Z_n] per start zeta
    passed: bool


def theorem_2_1_check(chain: FiniteEnvChain, x: int, eps: float,
                      mode: str = "certificate") -> Theorem21Report:
    """Verify P_zeta(chi(quenched law at n, pi) >= eps^(1/4)) <= eps^(1/4).

    The step count n comes from the integral mixing bound on the chain's
    exact environment profile, with gamma = min(chain.gamma, 1/2).  The
    exact joint Doob propagation gives E-hat[Z_n] per start state, and
    E-hat[Z_n] <= sqrt(eps) certifies the tail bound through the
    chi <= E-hat[Z] pathway and Markov's inequality.  `mode` accepts only
    "certificate".
    """
    if mode != "certificate":
        raise InputError(f"unknown mode {mode!r}; only 'certificate' is supported")
    evoset.start_mask(x, chain.n_states)
    gamma = chain.gamma
    if gamma <= 0.0:
        raise InputError("theorem inapplicable: some kernel has a zero diagonal")
    g_used = min(gamma, 0.5)
    profile = _phi_env_profile(chain)
    n = integral_mixing_bound(profile, g_used, float(chain.pi[x]), eps)
    certs = _doob_z_certificates(chain, x, n)
    passed = bool((certs <= math.sqrt(eps) + 1e-9).all())
    return Theorem21Report(gamma=g_used, steps=n, threshold=eps ** 0.25,
                           per_zeta_certificate=certs, passed=passed)
