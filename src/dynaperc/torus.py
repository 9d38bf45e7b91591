"""Geometry of the discrete torus Z_n^d.

Vertices are indexed lexicographically by coordinates, with coordinate 0 the
most significant digit.  Every edge is owned by its endpoint on the negative
side of the axis: edge ``v*d + axis`` joins ``v`` to ``v`` shifted by +1 along
``axis``.  Both layouts are frozen; serialized trajectories depend on them.

Neighbours come from cached tables built by array arithmetic on the
coordinate digits (`neighbor_vertices`, `incident_edges`, `edge_uv`), which
serve every lookup; the tests check them against scalar references.  A vertex
set is a bool mask of length n^d; int bitmasks appear only inside `evoset`'s
set-law engine and as the `masks` column of `expansion.half_mass_subsets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapabilityError, InputError
from .expansion import SUBSET_ENUM_MAX_STATES, as_mask, half_mass_subsets


@dataclass(frozen=True)
class TorusGraph:
    """The torus Z_n^d with n >= 3 (n = 2 would create parallel edges)."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise InputError(f"dimension must be >= 1, got {self.d}")
        if self.n < 3:
            raise InputError(f"side length must be >= 3, got {self.n}")

    @property
    def n_vertices(self) -> int:
        return self.n ** self.d

    @property
    def n_edges(self) -> int:
        return self.d * self.n ** self.d

    def _check_vertex(self, v: int) -> None:
        if not isinstance(v, (int, np.integer)) or not 0 <= v < self.n_vertices:
            raise InputError(f"vertex {v!r} is not an integer in [0, {self.n_vertices})")

    @cached_property
    def neighbor_vertices(self) -> np.ndarray:
        """(n_vertices, 2d) array: column 2*axis + (0 for +1, 1 for -1) holds
        each vertex's neighbour in that direction."""
        v = np.arange(self.n_vertices)[:, None]
        weights = self.n ** np.arange(self.d - 1, -1, -1)
        digits = (v // weights) % self.n
        nbr = np.empty((self.n_vertices, 2 * self.d), dtype=np.int64)
        nbr[:, 0::2] = v + ((digits + 1) % self.n - digits) * weights
        nbr[:, 1::2] = v + ((digits - 1) % self.n - digits) * weights
        return _read_only(nbr)

    @cached_property
    def edge_uv(self) -> np.ndarray:
        """(n_edges, 2) array of edge endpoints, row e = endpoints of edge e."""
        owners = np.repeat(np.arange(self.n_vertices), self.d)
        return _read_only(np.stack([owners, self.neighbor_vertices[:, 0::2].ravel()],
                                   axis=1))

    @cached_property
    def incident_edges(self) -> np.ndarray:
        """(n_vertices, 2d) array: column k holds the edge each vertex crosses
        to `neighbor_vertices[:, k]`."""
        axes = np.arange(self.d)
        inc = np.empty((self.n_vertices, 2 * self.d), dtype=np.int64)
        inc[:, 0::2] = np.arange(self.n_vertices)[:, None] * self.d + axes
        inc[:, 1::2] = self.neighbor_vertices[:, 1::2] * self.d + axes
        return _read_only(inc)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def edge_boundary(g: TorusGraph, S) -> np.ndarray:
    """Edge ids with exactly one endpoint in the vertex mask S; equals edge_boundary(~S)."""
    S = as_mask(S, g.n_vertices)
    uv = g.edge_uv
    return np.nonzero(S[uv[:, 0]] != S[uv[:, 1]])[0]


@dataclass(frozen=True)
class IsoProfileResult:
    value: float
    minimizer: np.ndarray  # vertex mask of a set attaining the value


def iso_profile(g: TorusGraph) -> IsoProfileResult:
    """Exact min over nonempty S with pi(S) <= 1/2 of |dE(S)| / |S|^((d-1)/d).

    Enumerates all 2^(n^d) subsets; a witness lower bound for the universal
    isoperimetric constant on this torus.
    """
    N = g.n_vertices
    if N > SUBSET_ENUM_MAX_STATES:
        raise CapabilityError(
            f"{N} vertices exceeds the enumeration cap of {SUBSET_ENUM_MAX_STATES}"
        )
    uv = g.edge_uv
    expo = (g.d - 1) / g.d
    best = math.inf
    best_set = None
    for _, bits, _ in half_mass_subsets(np.full(N, 1.0 / N)):
        sizes = bits.sum(axis=1)
        bnd = (bits[:, uv[:, 0]] != bits[:, uv[:, 1]]).sum(axis=1)
        ratio = bnd / sizes.astype(float) ** expo
        i = int(np.argmin(ratio))
        if ratio[i] < best:
            best = float(ratio[i])
            best_set = bits[i].copy()
    return IsoProfileResult(value=best, minimizer=best_set)
