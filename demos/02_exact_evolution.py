"""Exact quenched distributions vs. Monte Carlo walk replicas.

The walker attempts nearest-neighbor jumps at rate 1 and moves only across
currently-open edges.  For a fixed environment realization the time-t law is
computed exactly by piecewise uniformization, and agrees with simulated
replicas to Monte Carlo accuracy.
"""

import numpy as np

from dynaperc.dist import tv
from dynaperc.dynenv import DynParams, sample_env
from dynaperc.torus import TorusGraph
from dynaperc.walk import (exact_quenched_distribution, simulate_walks,
                           window_kernel)

g = TorusGraph(d=1, n=10)
env = sample_env(g, DynParams(p=0.6, mu=0.25, horizon=12.0),
                 init="stationary", seed=7)

t = 8.0
law = exact_quenched_distribution(env, 0, t)
print("exact quenched law at t=8:")
print(np.array2string(law, precision=4))

pos = [path.position_at(t) for path in simulate_walks(env, 0, t, 20000, seed=11)]
emp = np.bincount(pos, minlength=g.n_vertices) / len(pos)
print(f"TV(exact, 20k replicas) = {tv(law, emp):.4f}")

# one-step window kernels are doubly stochastic with diagonal >= 1/e
K = window_kernel(env, (0.0, 1.0))
print(f"\nunit-window kernel: row sums max dev {abs(K.sum(axis=1) - 1).max():.2e}, "
      f"min diagonal {np.diag(K).min():.4f} (>= 1/e = {np.exp(-1.0):.4f})")
