"""Sample a dynamical-percolation environment and inspect edge trajectories.

Each edge of the torus flips closed -> open at rate p*mu and open -> closed at
rate (1-p)*mu, so Bernoulli(p) is stationary and 1/mu sets the refresh
time scale.
"""

from dynaperc.dynenv import (DynParams, edge_transition_prob,
                             isolated_vertex_exists, sample_env)
from dynaperc.torus import TorusGraph

g = TorusGraph(d=2, n=8)
params = DynParams(p=0.4, mu=0.5, horizon=20.0)
env = sample_env(g, params, init="stationary", seed=1)

print(f"torus Z_{g.n}^{g.d}: {g.n_vertices} vertices, {g.n_edges} edges")
print(f"open fraction at t=0:  {env.open_mask_at(0.0).mean():.3f}")
print(f"open fraction at t=20: {env.open_mask_at(20.0).mean():.3f}")

# closed form for a single edge law vs. the sampled ensemble
t = 2.0
q = edge_transition_prob(params.p, params.mu, t, 0, 1)
print(f"\nP(open at t={t} | closed at 0) closed form: {q:.4f}")

emp = env.open_mask_at(t).mean()
print(f"fraction open at t={t} in this realization: {emp:.4f} (stationary p={params.p})")

found, v = isolated_vertex_exists(env, 0.2)
print(f"\nvertex isolated throughout [0, 0.2]: {found}"
      + (f" (witness vertex {v})" if found else ""))
