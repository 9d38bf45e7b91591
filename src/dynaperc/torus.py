"""Geometry of the discrete torus Z_n^d.

Vertices are indexed lexicographically by coordinates, with coordinate 0 the
most significant digit.  Every edge is owned by its endpoint on the negative
side of the axis: edge ``v*d + axis`` joins ``v`` to ``v`` shifted by +1 along
``axis``.  Both layouts are frozen; serialized trajectories depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapabilityError, InputError
from .expansion import SUBSET_ENUM_MAX_STATES, half_mass_subsets


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

    # ---- vertex indexing -------------------------------------------------

    def vertex_index(self, coords: Sequence[int]) -> int:
        if len(coords) != self.d:
            raise InputError(f"expected {self.d} coordinates, got {len(coords)}")
        v = 0
        for c in coords:
            if not 0 <= c < self.n:
                raise InputError(f"coordinate {c} out of range [0, {self.n})")
            v = v * self.n + c
        return v

    def coords(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        out = []
        for a in range(self.d - 1, -1, -1):
            out.append((v // self.n ** a) % self.n)
        return tuple(out)

    def shift(self, v: int, axis: int, step: int) -> int:
        """Vertex reached from v by moving `step` (+-1) along `axis`."""
        self._check_vertex(v)
        if not 0 <= axis < self.d:
            raise InputError(f"axis {axis} out of range [0, {self.d})")
        weight = self.n ** (self.d - 1 - axis)
        digit = (v // weight) % self.n
        return v + ((digit + step) % self.n - digit) * weight

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n_vertices:
            raise InputError(f"vertex {v} out of range [0, {self.n_vertices})")

    # ---- edge indexing ---------------------------------------------------

    def edge_id(self, v: int, axis: int) -> int:
        """Id of the edge from v in the +1 direction along `axis`."""
        self._check_vertex(v)
        if not 0 <= axis < self.d:
            raise InputError(f"axis {axis} out of range [0, {self.d})")
        return v * self.d + axis

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        if not 0 <= e < self.n_edges:
            raise InputError(f"edge {e} out of range [0, {self.n_edges})")
        v, axis = divmod(e, self.d)
        return v, self.shift(v, axis, +1)

    @cached_property
    def edge_uv(self) -> np.ndarray:
        """(n_edges, 2) array of edge endpoints, row e = endpoints of edge e."""
        uv = np.empty((self.n_edges, 2), dtype=np.int64)
        for e in range(self.n_edges):
            uv[e] = self.edge_endpoints(e)
        uv.setflags(write=False)
        return uv

    @cached_property
    def incident_edges(self) -> np.ndarray:
        """(n_vertices, 2d) array: edges incident to each vertex."""
        inc = np.empty((self.n_vertices, 2 * self.d), dtype=np.int64)
        for v in range(self.n_vertices):
            inc[v] = [e for _, e in neighbors(self, v)]
        inc.setflags(write=False)
        return inc


def neighbors(g: TorusGraph, v: int) -> list[tuple[int, int]]:
    """The 2d neighbours of v as (vertex, edge id) pairs.

    Symmetric: u lists v with the same edge id that v lists u with.
    """
    g._check_vertex(v)
    out = []
    for axis in range(g.d):
        up = g.shift(v, axis, +1)
        down = g.shift(v, axis, -1)
        out.append((up, g.edge_id(v, axis)))
        out.append((down, g.edge_id(down, axis)))
    return out


class VertexSet:
    """Dense bit-indexed subset of torus vertices with cached cardinality."""

    __slots__ = ("graph", "mask", "_size")

    def __init__(self, graph: TorusGraph, members=()):
        self.graph = graph
        n = graph.n_vertices
        if isinstance(members, np.ndarray) and members.dtype == bool:
            if members.shape != (n,):
                raise InputError("membership array has wrong length")
            mask = members.copy()
        elif isinstance(members, (int, np.integer)) and not isinstance(members, bool):
            # integer bitmask, bit v = membership of vertex v
            if members < 0 or members >> n:
                raise InputError("bitmask out of range for this graph")
            mask = np.zeros(n, dtype=bool)
            for v in range(n):
                if (members >> v) & 1:
                    mask[v] = True
        else:
            mask = np.zeros(n, dtype=bool)
            for v in members:
                graph._check_vertex(int(v))
                mask[int(v)] = True
        self.mask = mask
        self._size = int(mask.sum())

    @classmethod
    def full(cls, graph: TorusGraph) -> "VertexSet":
        s = cls(graph)
        s.mask[:] = True
        s._size = graph.n_vertices
        return s

    @property
    def size(self) -> int:
        return self._size

    @property
    def pi_mass(self) -> float:
        """Mass under the uniform distribution, |S| / n^d."""
        return self._size / self.graph.n_vertices

    def __contains__(self, v: int) -> bool:
        return bool(self.mask[v])

    def __len__(self) -> int:
        return self._size

    def add(self, v: int) -> None:
        self.graph._check_vertex(v)
        if not self.mask[v]:
            self.mask[v] = True
            self._size += 1

    def remove(self, v: int) -> None:
        self.graph._check_vertex(v)
        if self.mask[v]:
            self.mask[v] = False
            self._size -= 1

    def complement(self) -> "VertexSet":
        return VertexSet(self.graph, ~self.mask)

    def members(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]

    def to_bitmask(self) -> int:
        m = 0
        for v in self.members():
            m |= 1 << int(v)
        return m

    def __repr__(self):
        return f"VertexSet(d={self.graph.d}, n={self.graph.n}, members={list(self.members())})"


def edge_boundary(g: TorusGraph, S: VertexSet) -> np.ndarray:
    """Edge ids with exactly one endpoint in S; equals edge_boundary(S^c)."""
    uv = g.edge_uv
    return np.nonzero(S.mask[uv[:, 0]] != S.mask[uv[:, 1]])[0]


@dataclass(frozen=True)
class IsoProfileResult:
    value: float
    minimizer_bitmask: int

    def minimizer(self, g: TorusGraph) -> VertexSet:
        return VertexSet(g, self.minimizer_bitmask)


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
    best_mask = 0
    for masks, bits, _ in half_mass_subsets(np.full(N, 1.0 / N)):
        sizes = bits.sum(axis=1)
        bnd = (bits[:, uv[:, 0]] != bits[:, uv[:, 1]]).sum(axis=1)
        ratio = bnd / sizes.astype(float) ** expo
        i = int(np.argmin(ratio))
        if ratio[i] < best:
            best = float(ratio[i])
            best_mask = int(masks[i])
    return IsoProfileResult(value=best, minimizer_bitmask=best_mask)
