"""Per-mask and per-point references that the tests check the package's batch
routes against, and the writers of the file formats the commands read."""

import numpy as np

from cubenoise.codes import gf2_rank
from cubenoise.cube import CubeFunction
from cubenoise.inequalities import _layer_sums, enum_cap, layer_expectation


def subset_expectation_exact(n, lam, h):
    """Sum over all T of lam^|T| (1-lam)^(n-|T|) h(T), one h call per mask,
    for n up to enum_cap()."""
    cap = enum_cap()
    if n > cap:
        raise ValueError(f"exact subset enumeration capped at n={cap}, got {n}")
    table = np.array([h(t) for t in range(1 << n)], dtype=np.float64)
    return layer_expectation(lam, _layer_sums(n, table))


def matroid_rank(m, s_mask):
    """GF(2) rank of the matroid's columns in S, by elimination."""
    if not 0 <= s_mask < (1 << m.n):
        raise ValueError(f"subset mask {s_mask} out of range for n={m.n}")
    return gf2_rank(row & s_mask for row in m.rows)


def connected_components(g, s_mask):
    """Components of (V, S), isolated vertices included, by union-find."""
    if not 0 <= s_mask < (1 << len(g.edges)):
        raise ValueError(f"edge mask {s_mask} out of range")
    parent = list(range(g.vertex_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = g.vertex_count
    for j, (u, v) in enumerate(g.edges):
        ru, rv = find(u), find(v)
        if s_mask >> j & 1 and ru != rv:  # a loop (u = v) joins nothing
            parent[rv] = ru
            components -= 1
    return components


def point_indicator(n, point=0, scale=None):
    """scale (2^n by default) at one point, 0 elsewhere."""
    vals = np.zeros(1 << n)
    vals[point] = (1 << n) if scale is None else scale
    return CubeFunction(n, vals)


def dump_bit_matrix(rows, n, path):
    """Write the 'k n' bit-matrix format that codes.load_code reads."""
    rows = list(rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(rows)} {n}\n")
        for row in rows:
            fh.write("".join("1" if row >> j & 1 else "0" for j in range(n)) + "\n")


def dump_graph(g, path):
    """Write the 'V E' edge-list format that matroids.load_graph reads."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.vertex_count} {len(g.edges)}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")
