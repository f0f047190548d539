"""Sparse boundary matrices of a Cayley window, built from its edges and
face boundaries.  Only the tests read them, as a linear-algebra reference
for the dict-based solver and checks; numpy and scipy are test dependencies.
Edges are indexed by their rank (``step_tables.edge_ranks``), so the edge
dimension is the window's edge count.
"""

import numpy as np
from scipy import sparse
from step_tables import edge_list, edge_ranks


def boundary1(complex_):
    """The edges x vertices incidence matrix (self-loops give zero rows)."""
    rows, cols, vals = [], [], []
    for e, (s, _, t) in enumerate(edge_list(complex_)):
        if s == t:
            continue
        rows.extend([e, e])
        cols.extend([t, s])
        vals.extend([1, -1])
    return sparse.csr_matrix(
        (vals, (rows, cols)),
        shape=(complex_.edge_count, complex_.vertex_count),
        dtype=np.int64,
    )


def boundary2(complex_):
    """The faces x edges matrix whose rows are the face boundaries."""
    ranks = edge_ranks(complex_)
    rows, cols, vals = [], [], []
    for f, boundary in enumerate(complex_.cells.boundaries):
        for e, c in boundary.items():
            rows.append(f)
            cols.append(ranks[e])
            vals.append(c)
    return sparse.csr_matrix(
        (vals, (rows, cols)),
        shape=(complex_.face_count, complex_.edge_count),
        dtype=np.int64,
    )


def cycle_vector(cycle):
    """The cycle's coefficients as a dense vector indexed by edge."""
    ranks = edge_ranks(cycle.complex)
    vec = np.zeros(cycle.complex.edge_count, dtype=np.int64)
    for e, c in cycle.coefficients.items():
        vec[ranks[e]] = c
    return vec
