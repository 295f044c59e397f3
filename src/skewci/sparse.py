"""Sparse vectors: dicts {key: scalar} that never store a zero.

Every layer keeps its vectors, polynomials and matrix columns this way.
Both helpers work in place.  An existing key is updated where it stands, a
new key goes to the end, and a key whose sum becomes zero is deleted, so
the dict order depends only on the sequence of additions.
"""

from __future__ import annotations


def add_term(vec, key, coeff):
    """vec[key] += coeff; a zero coeff is skipped."""
    if not coeff:
        return
    cur = vec.get(key)
    if cur is None:
        vec[key] = coeff
        return
    cur = cur + coeff
    if cur:
        vec[key] = cur
    else:
        del vec[key]


def add_scaled(target, source, scale=None):
    """target += scale * source (scale None means 1)."""
    for key, coeff in source.items():
        add_term(target, key, coeff if scale is None else coeff * scale)
