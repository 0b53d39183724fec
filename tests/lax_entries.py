"""Conversions between dense connection matrices and the entry form of
``LaxConnection.mats[d]``: ``M[i][j]`` is a grid, or None for a structural
zero."""

import numpy as np


def entry_form(dense):
    """Entries of a grid + (k, k) array, every entry present."""
    k = dense.shape[-1]
    return tuple(tuple(np.ascontiguousarray(dense[..., i, j])
                       for j in range(k)) for i in range(k))


def with_zeros(M, shape):
    """M with every structural zero filled by np.zeros(shape)."""
    return tuple(tuple(np.zeros(shape) if e is None else e for e in row)
                 for row in M)


def dense_form(M, shape):
    """The grid + (k, k) array of M, structural zeros filled with zeros."""
    return np.stack([np.stack(row, axis=-1) for row in with_zeros(M, shape)],
                    axis=-2)
