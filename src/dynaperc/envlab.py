"""Finite Markovian evolving environments: an environment chain R over states E
with one walk kernel per environment state, all sharing a full-support
stationary pi.

Hosts the annealed product chain, quenched laws along environment paths, the
quenched-vs-annealed counterexample (i.i.d. identity/swap kernels), the
laziness-coupled variant, and the end-to-end check of the quenched mixing
bound P(chi >= eps^(1/4)) <= eps^(1/4).

The exact certificate runs the Doob set process jointly with the environment,
as one flat transition over (subset, environment state) pairs built from the
law table of `evoset.set_law_table`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import evoset
from .dist import wilson_interval
from .errors import CapabilityError, InputError
from .expansion import integral_mixing_bound, profile_phi_env

# Exact environment-path enumeration caps |E|^n at this.
PATH_ENUM_MAX = 10 ** 6


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
    vec = np.zeros(chain.n_states)
    vec[x0] = 1.0
    prev = None
    for z in path:
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


def sample_env_path(chain: FiniteEnvChain, zeta0: int, steps: int,
                    rng: np.random.Generator) -> np.ndarray:
    path = np.empty(steps, dtype=np.int64)
    z = zeta0
    for k in range(steps):
        z = int(rng.choice(chain.n_env, p=chain.R[z]))
        path[k] = z
    return path


def _doob_z_certificates(chain: FiniteEnvChain, x: int, n: int) -> np.ndarray:
    """E over env paths from each zeta0 of E-hat[Z_n] for the Doob set process
    started at {x}: one entry per start state, by exact propagation over
    (subset, env state) pairs.

    The Doob laws come from one `evoset.set_law_table`: pair (masks[r], z)
    is z * M + r, and its per-kernel arrays give the pair transition T as flat
    (z M + r, z2 M + c, R(z, z2) v) arrays over the (z, z2) with R > 0.  The
    expectation from every pair at once is T^n Z, by n bincount steps.
    """
    E, R, pi = chain.n_env, chain.R, chain.pi
    start = evoset.start_mask(x, chain.n_states)
    masks, transitions, which = evoset.set_law_table(chain.kernels, pi, start, doob=True)
    M = len(masks)
    parts = []
    for z, z2 in zip(*np.nonzero(R > 0)):
        r, c, v = transitions[which[z2]]
        parts.append((z * M + r, z2 * M + c, R[z, z2] * v))
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    expect = np.tile([evoset.z_statistic(mask, pi) for mask in masks], E)
    for _ in range(n):
        expect = np.bincount(rows, weights=vals * expect[cols], minlength=len(expect))
    return expect[M * np.arange(E)]  # start zeta0 is pair (start, zeta0)


def _enumerate_tail(chain: FiniteEnvChain, x: int, zeta0: int, n: int,
                    threshold: float) -> float:
    """Exact P(chi(quenched law at n, pi) >= threshold) by path enumeration."""
    pi = chain.pi
    total = 0.0

    def rec(z: int, vec: np.ndarray, prob: float, depth: int):
        nonlocal total
        if depth == n:
            c = math.sqrt(float(np.sum((vec - pi) ** 2 / pi)))
            if c >= threshold:
                total += prob
            return
        for z2 in range(chain.n_env):
            w = chain.R[z, z2]
            if w > 0.0:
                rec(z2, vec @ chain.kernels[z2], prob * w, depth + 1)

    v0 = np.zeros(chain.n_states)
    v0[x] = 1.0
    rec(zeta0, v0, 1.0, 0)
    return total


def _mc_tail(chain: FiniteEnvChain, x: int, zeta0: int, n: int, threshold: float,
             paths: int, seed: Optional[int]) -> tuple[float, tuple[float, float]]:
    """Monte Carlo tail over env paths, vectorized over all paths at once."""
    rng = np.random.default_rng(seed)
    E, S = chain.n_env, chain.n_states
    pi = chain.pi
    # sample all env transitions up front via inverse cdf per current state
    cdf = np.cumsum(chain.R, axis=1)
    z = np.full(paths, zeta0, dtype=np.int64)
    vecs = np.zeros((paths, S))
    vecs[:, x] = 1.0
    for _ in range(n):
        u = rng.random(paths)
        z = (u[:, None] > cdf[z]).sum(axis=1)
        for z2 in range(E):
            rows = z == z2
            if rows.any():
                vecs[rows] = vecs[rows] @ chain.kernels[z2]
    chis = np.sqrt(np.sum((vecs - pi) ** 2 / pi, axis=1))
    k = int(np.sum(chis >= threshold))
    return k / paths, wilson_interval(k, paths)


@dataclass(frozen=True)
class Theorem21Report:
    gamma: float
    steps: int
    threshold: float
    mode: str
    per_zeta_tail: Optional[np.ndarray]
    per_zeta_certificate: Optional[np.ndarray]  # joint E-hat[Z_n] per start zeta
    tail_ci: Optional[tuple[float, float]]
    passed: bool


def theorem_2_1_check(chain: FiniteEnvChain, x: int, eps: float,
                      mode: str = "certificate",
                      mc_paths: int = 10 ** 4,
                      seed: Optional[int] = None) -> Theorem21Report:
    """Verify P_zeta(chi(quenched law at n, pi) >= eps^(1/4)) <= eps^(1/4).

    The step count n comes from the integral mixing bound on the chain's
    exact environment profile, with gamma = min(chain.gamma, 1/2).

    Modes:
      certificate - exact joint Doob propagation; E-hat[Z_n] <= sqrt(eps)
                    certifies the tail bound through the chi <= E-hat[Z]
                    pathway and Markov's inequality.
      enumerate   - exact path enumeration (requires |E|^n <= PATH_ENUM_MAX).
      mc          - Monte Carlo tail over >= mc_paths environment paths.
    """
    evoset.start_mask(x, chain.n_states)
    gamma = chain.gamma
    if gamma <= 0.0:
        raise InputError("theorem inapplicable: some kernel has a zero diagonal")
    g_used = min(gamma, 0.5)
    profile = profile_phi_env(chain.R, chain.kernels, chain.pi)
    n = integral_mixing_bound(profile, g_used, float(chain.pi[x]), eps)
    threshold = eps ** 0.25
    E = chain.n_env
    if mode == "certificate":
        certs = _doob_z_certificates(chain, x, n)
        passed = bool((certs <= math.sqrt(eps) + 1e-9).all())
        return Theorem21Report(gamma=g_used, steps=n, threshold=threshold,
                               mode=mode, per_zeta_tail=None,
                               per_zeta_certificate=certs, tail_ci=None,
                               passed=passed)
    if mode == "enumerate":
        if E ** n > PATH_ENUM_MAX:
            raise CapabilityError(f"|E|^n = {E}^{n} exceeds {PATH_ENUM_MAX}")
        tails = np.array([_enumerate_tail(chain, x, z, n, threshold)
                          for z in range(E)])
        passed = bool((tails <= threshold + 1e-12).all())
        return Theorem21Report(gamma=g_used, steps=n, threshold=threshold,
                               mode=mode, per_zeta_tail=tails,
                               per_zeta_certificate=None, tail_ci=None,
                               passed=passed)
    if mode == "mc":
        tails = []
        cis = []
        for z in range(E):
            phat, ci = _mc_tail(chain, x, z, n, threshold, mc_paths,
                                None if seed is None else seed + z)
            tails.append(phat)
            cis.append(ci)
        tails = np.array(tails)
        # CI slack: the point estimate may exceed the bound by sampling noise
        passed = bool(all(ci[0] <= threshold + 1e-12 for ci in cis))
        worst = max(cis, key=lambda c: c[1])
        return Theorem21Report(gamma=g_used, steps=n, threshold=threshold,
                               mode=mode, per_zeta_tail=tails,
                               per_zeta_certificate=None, tail_ci=worst,
                               passed=passed)
    raise InputError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Chain spec file: plain-text numeric format, version 1.
#
#   line 1: "dynaperc-chain-v1"
#   line 2: n_env n_states
#   then  : R row-major (n_env lines), per-zeta kernels row-major
#           (n_env * n_states lines), pi (1 line)
# ---------------------------------------------------------------------------

def dump_chain(chain: FiniteEnvChain) -> str:
    lines = ["dynaperc-chain-v1", f"{chain.n_env} {chain.n_states}"]
    for row in chain.R:
        lines.append(" ".join(repr(float(v)) for v in row))
    for K in chain.kernels:
        for row in K:
            lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(" ".join(repr(float(v)) for v in chain.pi))
    return "\n".join(lines) + "\n"


def load_chain(text: str) -> FiniteEnvChain:
    """Parse a chain spec of `dump_chain`; malformed text raises InputError."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ["dynaperc-chain-v1"]:
        raise InputError("not a dynaperc chain spec")
    try:
        E, S = (int(t) for t in lines[1]) if len(lines) > 1 else ()
    except ValueError as exc:
        raise InputError("chain spec line 2 must be 'n_env n_states'") from exc
    if E < 1 or S < 1 or len(lines) != 2 + E + E * S + 1:
        raise InputError(f"chain spec with {E} env and {S} walk states "
                         f"needs {2 + E + E * S + 1} lines, has {len(lines)}")
    widths = [E] * E + [S] * (E * S + 1)
    if any(len(row) != w for row, w in zip(lines[2:], widths)):
        raise InputError("chain spec row of the wrong length")
    try:
        rows = [[float(t) for t in row] for row in lines[2:]]
    except ValueError as exc:
        raise InputError(f"chain spec entry is not a number: {exc}") from exc
    kernels = tuple(np.array(rows[E + k * S:E + (k + 1) * S]) for k in range(E))
    return FiniteEnvChain(R=np.array(rows[:E]), kernels=kernels, pi=np.array(rows[-1]))
