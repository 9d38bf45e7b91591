"""Quenched tail bound for walks driven by a finite environment chain.

A FiniteEnvChain pairs an environment Markov chain R with one walk kernel per
environment state.  The certificate route propagates the Doob evolving-set
process jointly with the environment and bounds the quenched chi-square tail:
E-hat[Z_n] <= sqrt(eps) implies P(chi >= eps^(1/4)) <= eps^(1/4).  The step
count n comes from the chain's exact environment expansion profile, printed
first.

Also shown: the two-state counterexample where the annealed chain mixes in
one step but no quenched law ever leaves a point mass, so the quenched
mixing time is infinite and the theorem's gamma > 0 hypothesis fails.
"""

import numpy as np

from dynaperc import envlab as L
from dynaperc.dist import tv
from dynaperc.errors import InputError

pi = np.full(4, 0.25)
ring = np.array([[0.5, 0.25, 0.0, 0.25],
                 [0.25, 0.5, 0.25, 0.0],
                 [0.0, 0.25, 0.5, 0.25],
                 [0.25, 0.0, 0.25, 0.5]])
slow = 0.5 * ring + 0.5 * np.eye(4)
chain = L.FiniteEnvChain(R=np.full((2, 2), 0.5), kernels=(ring, slow), pi=pi)

# the exact environment profile phi(r) behind the step count n
prof = L.profile_phi_env(chain.R, chain.kernels, chain.pi)
print("ring chain profile:", ", ".join(f"phi({k:.2f}) = {v:.4f}"
                                       for k, v in zip(prof.knots, prof.values)))
rep = L.theorem_2_1_check(chain, x=0, eps=0.1)
print(f"ring chain: gamma = {rep.gamma}, steps n = {rep.steps}")
print(f"certificates per start env state: {rep.per_zeta_certificate}")
print(f"tail bound certified: {rep.passed}")

# half-frozen variant: each step freezes with probability 1/2
var = L.variant_chain(chain)
rep_v = L.theorem_2_1_check(var, x=0, eps=0.1)
print(f"\nhalf-frozen variant: steps n = {rep_v.steps}, certified: {rep_v.passed}")

# the counterexample: annealed TV 0, quenched TV 1/2 forever
cx = L.counterexample_chain()
ann = L.annealed_kernel(cx)
vec = np.zeros(4)
vec[ann.index(0, 0)] = vec[ann.index(1, 0)] = 0.5
law = (vec @ ann.matrix).reshape(2, 2).sum(axis=0)
print(f"\ncounterexample: annealed TV(X_1, pi) = {tv(law, cx.pi)}")
print(f"quenched TV after one step: {tv(L.quenched_law(cx, [0], 0), cx.pi)}")
try:
    L.theorem_2_1_check(cx, x=0, eps=0.1)
except InputError as exc:
    print(f"theorem check refuses: {exc}")
