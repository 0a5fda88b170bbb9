"""Readers of a graph's dense n x n view that only the tests need: the program reads the
twin classes, and the tests check it against the matrix."""

import numpy as np


def edge_list(t) -> list[tuple[int, int]]:
    """The edges of the graph t as pairs i < j, ascending, read off its dense view."""
    ii, jj = np.nonzero(np.triu(t.adj, k=1))
    return list(zip(ii.tolist(), jj.tolist()))
