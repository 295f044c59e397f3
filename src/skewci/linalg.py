"""Sparse exact linear algebra over Q(zeta_m).

Vectors are dicts {column_key: CycScalar}; keys must be hashable and
sortable within one computation.  Everything is exact; used for the
bidegree-slice homology computations and the degreewise resolution oracle.
"""

from __future__ import annotations

from .sparse import add_scaled

__all__ = ["Echelon", "kernel_basis"]


class Echelon:
    """Incremental echelon form with optional combination tracking.

    For each stored pivot, vector = sum(trace[j] * input_j) holds when
    traces are threaded through ``reduce``/``add`` consistently.
    """

    __slots__ = ("pivots", "track")

    def __init__(self, track=False):
        self.pivots = {}  # pivot key -> (vector, trace or None)
        self.track = track

    def reduce(self, vec, trace=None):
        vec = dict(vec)
        trace = dict(trace) if trace is not None else ({} if self.track else None)
        while vec:
            piv = min(vec)
            entry = self.pivots.get(piv)
            if entry is None:
                break
            pvec, ptrace = entry
            scale = -(vec[piv] / pvec[piv])
            add_scaled(vec, pvec, scale)
            if self.track:
                add_scaled(trace, ptrace, scale)
        return vec, trace

    def add(self, vec, trace=None):
        """Insert vec; returns (pivot key, residual trace), pivot None if dependent."""
        vec, trace = self.reduce(vec, trace)
        if not vec:
            return None, trace
        piv = min(vec)
        self.pivots[piv] = (vec, trace)
        return piv, trace

    @property
    def rank(self):
        return len(self.pivots)


def kernel_basis(columns, one):
    """Kernel of the map sending unit vector i to columns[i].

    ``one`` is the scalar 1 of the coefficient field.  Returns dicts
    {input index: scalar} spanning the kernel exactly.
    """
    ech = Echelon(track=True)
    out = []
    for i, col in enumerate(columns):
        residual, trace = ech.reduce(dict(col), {i: one})
        if not residual:
            out.append(trace)
        else:
            ech.pivots[min(residual)] = (residual, trace)
    return out

