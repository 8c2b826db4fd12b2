"""Per-mask, per-point, per-q and per-p references that the tests check the
package's batch routes against, and the writers of the file formats the
commands read."""

import itertools
import math

import numpy as np

from cubenoise.codes import LinearCode, _enumerator_value, codeword_masks, gf2_rank, rank_of_columns
from cubenoise.cube import (
    CubeFunction,
    _check_mask,
    check_size,
    entropies,
    full_mask,
    log_lq_norms,
    noise_blocks,
    subset_lattice,
)
from cubenoise.inequalities import (
    _DERIVATIVE_STEP,
    GapReport,
    _conditional_rows,
    _coordinate_deficit,
    _layer_sums,
    _log_norms_kernel,
    LN2,
    log_sobolev_equality_expected,
    noise_rate,
    r_exponent,
    size_weights,
    subset_expectation_mc,
    subset_rate,
)
from cubenoise.matroids import subset_rate_for


def masked_fsum(w, layers):
    """math.fsum of the terms w_k L_k over the layers of nonzero weight, or
    np.sum of those terms where math.fsum raises (inf + -inf, or a sum past
    the double range)."""
    terms = [float(a * b) for a, b in zip(w, layers) if a > 0.0]
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(terms))


def layer_expectation(lam, layers):
    """E over T ~ lam of a table given by its layer sums L_k, k = 0..n: its
    own size_weights(n, lam), then masked_fsum with L.  The one-rate case of
    inequalities.layer_expectations."""
    return masked_fsum(size_weights(layers.shape[0] - 1, lam), layers)


def deficiency_mean(code, lam, values=None, mode="exact", samples=20000, seed=0):
    """codes.deficiency_expectation at one rate: (mean, standard error).  Exact
    mode reduces the histogram against the values for this rate alone; Monte
    Carlo mode takes subset_expectation_mc of each drawn mask's cell, its rank
    by elimination."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"erasure rate must be in [0, 1], got {lam}")
    width = code.n - code.k + 1
    values = np.arange(width) if values is None else values
    if mode == "exact":
        return layer_expectation(lam, (code.histogram * values).sum(axis=1)), 0.0
    cells = np.broadcast_to(values, (code.n + 1, width))
    h = lambda t: cells[t.bit_count(), t.bit_count() - rank_of_columns(code, t)]
    return subset_expectation_mc(code.n, lam, h, samples, seed)


def subset_expectation_exact(n, lam, h):
    """Sum over all T of lam^|T| (1-lam)^(n-|T|) h(T), one h call per mask,
    for n up to CUBENOISE_MAX_N."""
    check_size("CUBENOISE_MAX_N", "exact subset enumeration", "n", n, "raise CUBENOISE_MAX_N")
    table = np.array([h(t) for t in range(1 << n)], dtype=np.float64)
    return layer_expectation(lam, _layer_sums(n, table))


def entropy(f):
    """Ent of one cube function: the one-row case of entropies."""
    return float(entropies(f.values[None])[0])


def expand_to_cube(n, t_mask, compact):
    """The cube function of the coordinates in T whose compact table (as in
    cube.compact_conditional_expectations) is `compact`.

    The table is one broadcast copy, over one axis per run of coordinates in
    or out of T, highest coordinates first: a run of m coordinates is an axis
    of 2^m on the cube, and of 2^m or 1 in the compact table as the run is in
    T or not."""
    _check_mask(n, t_mask)
    compact_axes, cube_axes = [], []
    i, outside = 0, full_mask(n) & ~t_mask
    while i < n:
        kept = t_mask >> i & 1
        bits = (t_mask if kept else outside) >> i
        run = (bits ^ (bits + 1)).bit_length() - 1  # trailing ones of bits
        compact_axes.append(1 << (run * kept))
        cube_axes.append(1 << run)
        i += run
    out = np.empty(cube_axes[::-1])
    out[...] = compact.reshape(compact_axes[::-1])
    return CubeFunction(n, out)


def noise_operator(f, eps):
    """T_eps f at one eps: the one-row case of noise_blocks."""
    return CubeFunction(f.n, next(noise_blocks(f, (eps,)))[0])


def loop_butterfly(values):
    """Hadamard butterflies of one 1-D table in place, a level at a time, in
    the textbook order: level h pairs i with i + h, for h = 1, 2, 4, ..."""
    h = 1
    while h < values.shape[0]:
        v = values.reshape(-1, 2, h)
        a = v[:, 0, :].copy()
        v[:, 0, :] = a + v[:, 1, :]
        v[:, 1, :] = a - v[:, 1, :]
        h <<= 1
    return values


def dirichlet_form(f, g):
    """E(f, g) summed edge direction by edge direction, each direction's
    differences of f and of g taken afresh."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} != {g.n}")
    total = 0.0
    for i in range(f.n):
        fv = f.values.reshape(-1, 2, 1 << i)
        gv = g.values.reshape(-1, 2, 1 << i)
        df = fv[:, 0, :] - fv[:, 1, :]
        dg = gv[:, 0, :] - gv[:, 1, :]
        total += float(np.sum(df * dg))
    return 2.0 * total / (1 << f.n)


def coordinate_log_norm_deficit(f, q):
    """The co-singleton deficit at one q from the top two layers of the subset
    lattice, one log_lq_norms call per layer at that q alone."""
    layers = itertools.islice(subset_lattice(f), 2)
    return _coordinate_deficit(f.n, np.concatenate([log_lq_norms(t, (q,))[0] for _, _, t in layers]))


def log_sobolev_gap(f, q, tolerance=1e-9):
    """The Dirichlet-form bound of log_sobolev_sweep at one q, its own two-layer
    walk per call."""
    if not q > 1.0 or q == math.inf:
        raise ValueError(f"need finite q > 1, got {q}")
    scale = float(f.values.max())
    f = f.scaled(1.0 / scale)
    energy = dirichlet_form(CubeFunction(f.n, np.power(f.values, q - 1.0)), f)
    bound = 4.0 * r_exponent(q) * float(np.mean(f.values**q)) * coordinate_log_norm_deficit(f, q)
    gap = energy - bound
    equality = abs(gap) <= tolerance * max(1.0, abs(bound), abs(energy))
    params = {
        "n": f.n,
        "q": q,
        "eps_or_lambda": None,
        "mode": "exact",
        "scale": scale,
        "equality": equality,
        "equality_expected": log_sobolev_equality_expected(f, q),
        "note": "equality" if equality else "",
    }
    return GapReport("logsobolev", bound, energy, params)


def derivative_check(f, q):
    """The derivative comparison of derivative_sweep at one q: its own walk of
    the whole subset lattice, and T_h f and T_2h f each from a transform of f."""
    if f.is_constant():
        raise ValueError("derivative comparison requires a nonconstant function")
    efq = float(np.mean(f.values**q))
    lhs = -dirichlet_form(CubeFunction(f.n, np.power(f.values, q - 1.0)), f) / (2.0 * efq)
    norms = _conditional_rows(f, _log_norms_kernel((q,)), 1)[0]
    top = [full_mask(f.n) ^ c for c in (0, *(1 << h for h in range(f.n)))]
    rhs = -2.0 * r_exponent(q) * _coordinate_deficit(f.n, norms[top])
    layers = _layer_sums(f.n, norms)
    base = float(layers[f.n])
    steps = (_DERIVATIVE_STEP, 2.0 * _DERIVATIVE_STEP)
    noisy = [float(log_lq_norms(noise_operator(f, h).values, (q,))[0]) for h in steps]
    averaged = [layer_expectation(subset_rate(q, h), layers) for h in steps]
    # second-order one-sided differences, (4 g(h) - g(2h) - 3 g(0)) / 2h
    fd_lhs = (4.0 * noisy[0] - noisy[1] - 3.0 * base) / (2.0 * _DERIVATIVE_STEP)
    fd_rhs = (4.0 * averaged[0] - averaged[1] - 3.0 * base) / (2.0 * _DERIVATIVE_STEP)
    rel_lhs = abs(fd_lhs - lhs) / max(1e-300, abs(lhs))
    rel_rhs = abs(fd_rhs - rhs) / max(1e-300, abs(rhs))
    params = {
        "n": f.n,
        "q": q,
        "eps_or_lambda": 0.0,
        "mode": "exact",
        "step": _DERIVATIVE_STEP,
        "fd_lhs": fd_lhs,
        "fd_rhs": fd_rhs,
        "rel_err_lhs": rel_lhs,
        "rel_err_rhs": rel_rhs,
        "note": f"rel_err_lhs={rel_lhs!r};rel_err_rhs={rel_rhs!r}",
    }
    return GapReport("derivative", lhs, rhs, params)


def syndromes(code):
    """The syndrome of every cube point, in index order, as np.intp: bit j of
    s(x) is the parity of h_j & x for the dual generator rows h_j."""
    out = np.zeros(1 << code.n, dtype=np.intp)
    for i in range(code.n):
        column = sum((h >> i & 1) << j for j, h in enumerate(code.dual.generator))
        out[1 << i : 2 << i] = out[: 1 << i] ^ column
    return out


def f_value(code, lam, q):
    """F(lam, q) at one point: q = 2 and inf from the dual weight enumerator,
    any other q from T_eps f gathered onto all 2^n points and averaged there
    in index order (n up to the cube dimension cap)."""
    if q in (2.0, math.inf):
        return _enumerator_value(code, lam ** (2.0 * LN2))
    return cube_f_value(code, lam, q)


def cube_f_value(code, lam, q):
    """F(lam, q) from T_eps f laid out on all 2^n points, for any q >= 1:
    T_eps f on the syndromes, in syndrome order, is one transform of the
    dual codewords' rho^wt."""
    if q == 1.0:
        eps = (1.0 - math.sqrt(lam)) / 2.0
    elif q == math.inf:
        eps = (1.0 - lam ** (2.0 * LN2)) / 2.0
    else:
        eps = noise_rate(q, lam)
    noisy = loop_butterfly((1.0 - 2.0 * eps) ** code.dual.codeword_weights)
    if q == math.inf:
        return math.log2(float(noisy.max()))
    if q == 1.0:
        return entropy(CubeFunction(code.n, noisy[syndromes(code)]))
    moment = float(np.mean((np.maximum(noisy, 0.0) ** q)[syndromes(code)]))
    return math.log2(moment) / (q - 1.0)


def code_of_dimension(n, k, seed):
    """A seeded random [n, k] code: rows drawn until k are independent."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < k:
        row = int(rng.integers(1, 1 << n))
        if gf2_rank(rows + [row]) > len(rows):
            rows.append(row)
    return LinearCode(n, tuple(rows))


def plain_zeta_table(code):
    """|T| - rank T for every mask T of the code's own coordinates: the dual
    indicator in int64, one subset-zeta level per coordinate over the whole
    table, and d = log2 of the count of dual codewords inside T."""
    counts = np.zeros(1 << code.n, dtype=np.int64)
    counts[codeword_masks(code.dual)] = 1
    h = 1
    while h < counts.size:
        v = counts.reshape(-1, 2, h)
        v[:, 1, :] += v[:, 0, :]
        h <<= 1
    return np.bitwise_count(counts - 1)


def plain_zeta_histogram(code):
    """N[s, d] from the whole table at once: one int64 key
    (n - k + 1) s + d per mask and one bincount."""
    width = code.n - code.k + 1
    sizes = np.bitwise_count(np.arange(1 << code.n)).astype(np.int64)
    cells = sizes * width + plain_zeta_table(code)
    return np.bincount(cells, minlength=(code.n + 1) * width).reshape(code.n + 1, width)


def gray_walk_weights(code):
    """Weight counts a_0..a_n by a Gray-code walk over the 2^k codewords as
    Python ints, one generator row XORed in per step: any length n."""
    counts = [0] * (code.n + 1)
    word = 0
    counts[0] = 1
    for step in range(1, 1 << code.k):
        word ^= code.generator[(step & -step).bit_length() - 1]
        counts[word.bit_count()] += 1
    return counts


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


def log2_of_one_plus(x):
    """log2(1 + x), the lhs of an mgf 1 + x: log1p(x) / ln 2 below 1, log2
    of the sum from 1 up."""
    return math.log1p(x) / LN2 if x < 1.0 else math.log2(1.0 + x)


def deficiency_inequality_gap(m, p, mode="exact", samples=20000, seed=0):
    """The row of matroids.deficiency_sweep at one p: the lhs from the
    average of 2^d - 1, the mgf's excess over 1."""
    t = subset_rate_for(p)
    code = m.row_space_code
    excess_values = np.exp2(np.arange(code.n - code.k + 1)) - 1.0
    excess, _ = deficiency_mean(code, p, excess_values, mode, samples, seed)
    rhs, stderr = deficiency_mean(code, t, None, mode, samples, seed + 1)
    lhs = log2_of_one_plus(excess)
    params = {"n": m.n, "q": None, "eps_or_lambda": p, "mode": mode, "t": t,
              "samples": samples, "seed": seed, "stderr": stderr}
    return GapReport("deficiency", lhs, rhs, params)


def tutte_identity_check(m, p):
    """The row of matroids.tutte_sweep at one p, by the unfolded Tutte forms

        p^k (1-p)^(n-k) T(1/p, (1+p)/(1-p)) and
        t^(k+1) (1-t)^(n-k-1) dT/dy(1/t, 1/(1-t)),

    whose powers of 1/p overflow for p below about 1e-300 / k.  The mgf
    residual compares the excesses over 1: the average of 2^d - 1 and the
    first form less 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"Tutte arguments have poles at p in {{0,1}}; got {p}")
    t = subset_rate_for(p)
    k, n = m.k, m.n
    coeffs = m.tutte.coeffs.items()
    code = m.row_space_code
    x, y = 1 / p, (1 + p) / (1 - p)
    excess_direct = deficiency_mean(code, p, np.exp2(np.arange(n - k + 1)) - 1.0)[0]
    mgf_tutte = p**k * (1 - p) ** (n - k) * sum(c * x**i * y**j for (i, j), c in coeffs)
    drv_direct = deficiency_mean(code, t)[0]
    x, y = 1 / t, 1 / (1 - t)
    drv_tutte = t ** (k + 1) * (1 - t) ** (n - k - 1) * sum(
        c * j * x**i * y ** (j - 1) for (i, j), c in coeffs if j
    )

    def rel(a, b):
        return abs(a - b) / max(1.0, abs(a), abs(b))

    params = {
        "n": n,
        "q": None,
        "eps_or_lambda": p,
        "mode": "exact",
        "t": t,
        "mgf_residual": rel(excess_direct, mgf_tutte - 1.0),
        "deficiency_residual": rel(drv_direct, drv_tutte),
        "note": f"mgf_residual={rel(excess_direct, mgf_tutte - 1.0):.2e};deficiency_residual={rel(drv_direct, drv_tutte):.2e}",
    }
    lhs = math.log2(mgf_tutte)
    return GapReport("tutte", lhs, drv_tutte, params)


def bounded_diff_tail(m, p, t, delta):
    """exp(-2 ((t - p) mu(p) + p delta)^2 / (p^2 n)), the comparator a
    matroids.tail_sweep row notes, for any 0 < p <= t <= 1."""
    if not 0.0 < p <= t <= 1.0:
        raise ValueError(f"need 0 < p <= t <= 1, got p={p}, t={t}")
    if not delta >= 0:
        raise ValueError(f"threshold offset must be >= 0, got {delta}")
    mu_p = deficiency_mean(m.row_space_code, p)[0]
    return math.exp(-2.0 * ((t - p) * mu_p + p * delta) ** 2 / (p**2 * m.n))


def tail_bound_check(m, p, delta):
    """The row of matroids.tail_sweep at one p > 0 and one delta, its
    bounded_diff note included."""
    if not delta >= 0:
        raise ValueError(f"threshold offset must be >= 0, got {delta}")
    t = subset_rate_for(p)
    code = m.row_space_code
    mean_t = deficiency_mean(code, t)[0]
    prob = deficiency_mean(code, p, np.arange(code.n - code.k + 1) >= mean_t + delta)[0]
    bound = 2.0**-delta
    params = {
        "n": m.n,
        "q": None,
        "eps_or_lambda": p,
        "mode": "exact",
        "delta": delta,
        "threshold": mean_t + delta,
        "note": f"bounded_diff={bounded_diff_tail(m, p, t, delta)!r}",
    }
    return GapReport("tail", prob, bound, params)


def graph_inequality_gap(g, p, mode="exact", samples=20000, seed=0):
    """The row of matroids.graph_sweep at one p: |S| + c(S) = |V| + d(S), so
    both sides are the deficiency row's plus the vertex count."""
    rep = deficiency_inequality_gap(g.matroid, p, mode, samples, seed)
    v = g.vertex_count
    return GapReport("graph", rep.lhs + v, rep.rhs + v, {**rep.params, "vertices": v})


def mean_deficiency(m, p):
    """mu(p) of matroids.mu_curve at one p, by its own size weights
    p^k (1-p)^(n-k) and masked_fsum with the layer sums."""
    hist = m.row_space_code.histogram
    layers = (hist * np.arange(hist.shape[1])).sum(axis=1)
    k = np.arange(m.n + 1)
    return masked_fsum(np.power(p, k) * np.power(1.0 - p, m.n - k), layers)


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
