import math
import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from references import code_of_dimension, dump_bit_matrix, gray_walk_weights

from cubenoise import codes
from cubenoise.cube import conditional_expectation, wht_forward
from cubenoise.codes import (
    LinearCode,
    WeightDistribution,
    alpha_reversal_holds,
    bec_bound_dual_side,
    bec_bound_primal_side,
    bec_dual_exponent,
    deficiency_expectation,
    deficiency_table,
    dual_weight_bound,
    f_sweep,
    gf2_nullspace,
    gf2_rank,
    gf2_rref,
    krawtchouk,
    load_code,
    macwilliams_transform,
    rank_of_columns,
    reed_muller,
    sberlo_bound,
    sberlo_comparison_rows,
    sberlo_exponent,
    scaled_indicator,
    _weights_by_blocks,
)
from cubenoise.inequalities import cond_exp_log_norms

LN2 = math.log(2.0)

REP2 = LinearCode(2, (0b11,))


def random_code(n, seed, rows=None):
    rng = np.random.default_rng(seed)
    if rows is None:
        rows = int(rng.integers(1, n + 1))
    basis = gf2_rref((int(r) for r in rng.integers(1, 1 << n, rows)), n)[1]
    if not basis:
        basis = [1]
    return LinearCode(n, tuple(basis))


def brute_codewords(code):
    words = set()
    for pick in range(1 << code.k):
        w = 0
        for i in range(code.k):
            if pick >> i & 1:
                w ^= code.generator[i]
        words.add(w)
    return words


# ---------------------------------------------------------------------------
# GF(2) plumbing
# ---------------------------------------------------------------------------

def test_gf2_rank_examples():
    assert gf2_rank([0b1, 0b10, 0b100]) == 3
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b011, 0b110, 0b101]) == 2


def test_gf2_nullspace_orthogonal():
    rows = [0b1011, 0b0110]
    null = gf2_nullspace(rows, 4)
    assert len(null) == 2
    for v in null:
        for r in rows:
            assert bin(v & r).count("1") % 2 == 0


def test_linear_code_rejects_dependent_rows():
    with pytest.raises(ValueError, match="dependent"):
        LinearCode(3, (0b011, 0b110, 0b101))


# ---------------------------------------------------------------------------
# column ranks
# ---------------------------------------------------------------------------

def test_rank_of_columns_examples():
    code = random_code(6, 1)
    assert rank_of_columns(code, 0) == 0
    assert rank_of_columns(code, 0b111111) == code.k
    assert rank_of_columns(REP2, 0b01) == 1


def test_rank_of_columns_monotone_submodular():
    code = random_code(8, 2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = int(rng.integers(0, 256))
        t = int(rng.integers(0, 256))
        rs, rt = rank_of_columns(code, s), rank_of_columns(code, t)
        ru = rank_of_columns(code, s | t)
        ri = rank_of_columns(code, s & t)
        assert rank_of_columns(code, s | t) >= rs  # monotone
        assert ru + ri <= rs + rt  # submodular


# ---------------------------------------------------------------------------
# weight distributions and duals
# ---------------------------------------------------------------------------

def test_weight_distribution_examples():
    assert REP2.weights.counts == (1, 0, 1)
    rm13 = reed_muller(1, 3)
    assert rm13.weights.counts == (1, 0, 0, 0, 14, 0, 0, 0, 1)
    full = LinearCode(4, (1, 2, 4, 8))
    assert full.weights.counts == tuple(comb(4, w) for w in range(5))


def test_weight_distribution_matches_brute_enumeration():
    for seed in range(5):
        code = random_code(7, 40 + seed)
        counts = [0] * (code.n + 1)
        for w in brute_codewords(code):
            counts[bin(w).count("1")] += 1
        assert code.weights.counts == tuple(counts)
        assert code.weights.total() == code.size


def test_weight_distribution_block_path_crosses_blocks():
    code = reed_muller(2, 4)  # k = 11
    assert _weights_by_blocks(code, block_bits=3) == list(code.weights.counts)


@pytest.mark.parametrize("n", [63, 64, 65, 128, 130])
@pytest.mark.parametrize("block_bits, k", [(3, 8), (20, 21)])
def test_weight_blocks_match_the_gray_walk_across_words(n, block_bits, k):
    # k > block_bits, so the walk XORs whole blocks, one uint64 block per 64
    # coordinates, and adds their popcounts
    rng = random.Random(n * block_bits)
    rows: list[int] = []
    while len(rows) < k:
        rows = gf2_rref(rows + [rng.getrandbits(n) | 1 << (n - 1)], n)[1]
    code = LinearCode(n, tuple(rows))
    want = gray_walk_weights(code)
    assert _weights_by_blocks(code, block_bits) == want
    assert list(code.weights.counts) == want


def test_dual_code_examples():
    full = LinearCode(3, (1, 2, 4))
    assert full.dual.generator == ()
    assert sorted(REP2.dual.generator) == [0b11]
    even = reed_muller(0, 3).dual
    assert even.k == 7
    assert all(c == 0 for w, c in enumerate(even.weights.counts) if w % 2)


def test_dual_of_dual_is_original():
    for seed in range(4):
        code = random_code(8, 70 + seed)
        back = code.dual.dual
        assert brute_codewords(back) == brute_codewords(code)


def test_dual_orthogonality_exhaustive():
    code = random_code(6, 80)
    dual = code.dual
    assert dual.k == code.n - code.k
    for c in brute_codewords(code):
        for d in brute_codewords(dual):
            assert bin(c & d).count("1") % 2 == 0


# ---------------------------------------------------------------------------
# MacWilliams
# ---------------------------------------------------------------------------

def test_krawtchouk_small_values():
    # K_i(0) = C(n, i); row sums against (1 +/- 1)^k scalings
    for i in range(5):
        assert krawtchouk(4, i, 0) == comb(4, i)
    assert krawtchouk(4, 1, 2) == 0  # (4 - 2*2)


def test_macwilliams_examples():
    full = LinearCode(3, (1, 2, 4))
    a = full.weights
    assert macwilliams_transform(a, 3, 3).counts == (1, 0, 0, 0)
    assert macwilliams_transform(WeightDistribution((1, 0, 1)), 2, 1).counts == (1, 0, 1)


def test_macwilliams_matches_dual_enumeration():
    for seed in range(6):
        code = random_code(9, 90 + seed)
        got = macwilliams_transform(code.weights, code.n, code.k)
        assert got.counts == code.dual.weights.counts


def test_macwilliams_involution():
    code = random_code(8, 99)
    a = code.weights
    b = macwilliams_transform(a, code.n, code.k)
    back = macwilliams_transform(b, code.n, code.n - code.k)
    assert back.counts == a.counts


def test_macwilliams_skips_absent_weights(monkeypatch):
    # RM(1,6) has codewords of weights 0, 32 and 64 only: the transform
    # evaluates K_i at those three weights, not at all 65
    code = reed_muller(1, 6)
    a = code.weights
    present = sum(1 for c in a.counts if c)
    assert present == 3
    calls = []
    real = codes.krawtchouk
    monkeypatch.setattr(codes, "krawtchouk", lambda n, i, w: calls.append(w) or real(n, i, w))
    b = macwilliams_transform(a, code.n, code.k)
    assert len(calls) <= (code.n + 1) * present
    assert set(calls) == {0, 32, 64}
    assert sum(b.counts) == 1 << (code.n - code.k)


def test_macwilliams_rejects_invalid_distribution():
    with pytest.raises(ValueError, match="non-integer"):
        macwilliams_transform(WeightDistribution((1, 1, 1)), 2, 1)


def test_alpha_reversal_exact():
    for seed in range(6):
        a = random_code(8, 110 + seed).weights
        for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            assert alpha_reversal_holds(a, alpha)


# ---------------------------------------------------------------------------
# cube embedding
# ---------------------------------------------------------------------------

def test_scaled_indicator_examples():
    full = LinearCode(2, (1, 2))
    assert scaled_indicator(full).values.tolist() == [1.0] * 4
    zero = LinearCode(2, ())
    f = scaled_indicator(zero)
    assert f.values.tolist() == [4.0, 0.0, 0.0, 0.0]
    assert np.allclose(wht_forward(f), 1.0)
    rep = scaled_indicator(REP2)
    assert rep.values.tolist() == [2.0, 0.0, 0.0, 2.0]
    assert wht_forward(rep).tolist() == [1.0, 0.0, 0.0, 1.0]


def test_indicator_spectrum_is_dual_indicator():
    for seed in range(4):
        code = random_code(6, 120 + seed)
        coeffs = wht_forward(scaled_indicator(code))
        dual_words = brute_codewords(code.dual)
        for r in range(1 << code.n):
            assert coeffs[r] == pytest.approx(1.0 if r in dual_words else 0.0, abs=1e-12)


def test_cond_exp_closed_form():
    # E(f|T) equals 2^(|T| - rank T) on the words orthogonal to every dual
    # word inside T, and vanishes elsewhere
    for seed in range(3):
        code = random_code(5, 130 + seed)
        f = scaled_indicator(code)
        dual_words = brute_codewords(code.dual)
        for t in range(1 << code.n):
            inside = [d for d in dual_words if d & ~t == 0]
            level = 2 ** (bin(t).count("1") - rank_of_columns(code, t))
            got = conditional_expectation(f, t)
            for x in range(1 << code.n):
                ortho = all(bin(x & d).count("1") % 2 == 0 for d in inside)
                assert got.values[x] == pytest.approx(level if ortho else 0.0, abs=1e-11)


def test_dual_subspace_dimension_identity():
    for seed in range(4):
        code = random_code(7, 140 + seed)
        dual_words = brute_codewords(code.dual)
        rng = np.random.default_rng(seed)
        for t in rng.integers(0, 1 << code.n, 25):
            t = int(t)
            inside = sum(1 for d in dual_words if d & ~t == 0)
            assert inside == 2 ** (bin(t).count("1") - rank_of_columns(code, t))


def test_cond_exp_norm_exponent():
    # q ln||E(f|T)||_q = (q-1)(|T| - rank T) ln 2 for the scaled indicator f
    assert deficiency_table(REP2).tolist() == [0, 0, 0, 1]
    for code in (REP2, random_code(8, 150)):
        table = deficiency_table(code)
        for q in (1.5, 2.0, 3.0):
            got = q * cond_exp_log_norms(scaled_indicator(code), q)
            np.testing.assert_allclose(got, (q - 1.0) * table * LN2, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# rank-deficiency machinery
# ---------------------------------------------------------------------------

def test_deficiency_table_matches_direct_ranks():
    for seed in range(5):
        code = random_code(8, 160 + seed)
        table = deficiency_table(code)
        for t in range(1 << code.n):
            assert table[t] == t.bit_count() - rank_of_columns(code, t)


@pytest.mark.parametrize("n", range(1, 11))
def test_deficiency_table_is_size_minus_rank_for_every_dimension(n):
    # masks in natural coordinate order, counts in the narrowest unsigned
    # dtype of at least n - k bits (uint8 up to n - k = 8, uint16 past it)
    for k in range(n + 1):
        code = code_of_dimension(n, k, 20 * n + k)
        table = deficiency_table(code)
        assert table.dtype == np.dtype(np.uint8 if n - k <= 8 else "<u2")
        assert table.tolist() == [t.bit_count() - rank_of_columns(code, t) for t in range(1 << n)]


def test_deficiency_table_takes_no_histogram_route(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("deficiency_table is one zeta of the dual indicator")

    for name in ("_projected_histogram", "_listed_parts", "_pivot_columns"):
        monkeypatch.setattr(codes, name, refused)
    for code in (REP2, random_code(9, 161), code_of_dimension(10, 0, 3), code_of_dimension(10, 10, 4)):
        table = deficiency_table(code)
        assert table.tolist() == [t.bit_count() - rank_of_columns(code, t) for t in range(1 << code.n)]


def test_deficiency_table_refuses_past_the_cap_before_allocating(monkeypatch):
    monkeypatch.setenv("CUBENOISE_MAX_N", "20")
    code = code_of_dimension(21, 3, 21)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at n=20, got 21"):
            deficiency_table(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the 2^21-mask table would take 2 MiB


def test_rank_deficiency_examples():
    assert deficiency_expectation(random_code(6, 170), [0.0]) == [(0.0, 0.0)]
    full = LinearCode(5, (1, 2, 4, 8, 16))
    assert deficiency_expectation(full, (0.0, 0.3, 1.0)) == [(0.0, 0.0)] * 3
    ((mean, _),) = deficiency_expectation(REP2, [0.5])
    assert mean == pytest.approx(0.25, abs=1e-15)


def test_rank_deficiency_nonnegative_and_mc_consistent():
    code = random_code(9, 180)
    lams = (0.1, 0.5, 0.9)
    exact = deficiency_expectation(code, lams)
    mc = deficiency_expectation(code, lams, mode="mc", samples=30_000, seed=7)
    for (mean, _), (estimate, _) in zip(exact, mc, strict=True):
        assert mean >= 0.0
        assert estimate == pytest.approx(mean, abs=0.05)


# ---------------------------------------------------------------------------
# F values and the four-way identity
# ---------------------------------------------------------------------------

def identities(code, lam):
    return f_sweep(code, [lam], ())[0].identities


def test_f_value_degenerate_rates():
    code = random_code(6, 190)
    zero, one = f_sweep(code, [0.0, 1.0], (1.0, 1.5, 2.0, 3.0, math.inf))
    for value in (*zero.values, zero.identities.moment, zero.identities.sup):
        assert value == pytest.approx(0.0, abs=1e-12)
    for value in (*one.values[1:4], one.identities.moment):
        assert value == pytest.approx(code.n - code.k, abs=1e-9)


def test_f_value_repetition_closed_form():
    for lam in (0.2, 0.5, 0.8):
        theta = lam ** (2 * LN2)
        expect = math.log2(1 + theta**2)
        (row,) = f_sweep(REP2, [lam], [2.0])
        assert row.values[0] == pytest.approx(expect, abs=1e-12)
        assert row.identities.moment == pytest.approx(expect, abs=1e-9)


def test_f_value_two_routes_agree():
    # the syndrome route's moment and sup against the enumerator's q = 2 and inf
    for seed in range(4):
        code = random_code(7, 200 + seed)
        for row in f_sweep(code, (0.25, 0.6), (2.0, math.inf)):
            assert row.identities.moment == pytest.approx(row.values[0], abs=1e-9)
            assert row.identities.sup == pytest.approx(row.values[1], abs=1e-9)


def test_enumerator_identities_examples():
    full = LinearCode(3, (1, 2, 4))
    vals = identities(full, 0.7)
    assert vals.spread() <= 1e-12
    assert vals.moment == pytest.approx(0.0, abs=1e-12)

    zero = LinearCode(3, ())
    for lam in (0.3, 0.8):
        theta = lam ** (2 * LN2)
        vals = identities(zero, lam)
        assert vals.dual_sum == pytest.approx(3 * math.log2(1 + theta), abs=1e-12)
        assert vals.spread() <= 1e-9

    for lam in (0.2, 0.5, 0.9):
        theta = lam ** (2 * LN2)
        vals = identities(REP2, lam)
        assert vals.moment == pytest.approx(math.log2(1 + theta**2), abs=1e-9)
        assert vals.spread() <= 1e-9


def test_rank_deficiency_dominates_f_values():
    for seed in range(4):
        code = random_code(7, 210 + seed)
        lams = (0.2, 0.5, 0.8)
        for lam, (deficiency, _) in zip(lams, deficiency_expectation(code, lams)):
            (row,) = f_sweep(code, [lam], (1.5, 2.0, 3.0, math.inf))
            for value in row.values:
                assert deficiency >= value - 1e-9


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_dual_weight_bound_examples():
    assert dual_weight_bound(REP2, 0.5, 0) >= 1.0
    got = dual_weight_bound(REP2, 0.5, 2)
    assert got == pytest.approx(2.0 ** (4 * LN2 + 0.25), abs=1e-9)
    assert got >= 1.0  # true b_2 = 1
    full = LinearCode(4, (1, 2, 4, 8))
    assert dual_weight_bound(full, 0.7, 2) >= 0.0
    assert dual_weight_bound(full, 0.0, 3) == math.inf
    assert dual_weight_bound(full, 0.0, 0) == 1.0


def test_dual_weight_bound_dominates_enumeration():
    for seed in range(4):
        code = random_code(8, 220 + seed)
        b = code.dual.weights.counts
        for lam in (0.3, 0.6, 1.0):
            for i, count in enumerate(b):
                assert count <= dual_weight_bound(code, lam, i) * (1 + 1e-9)


def test_bec_dual_side_examples():
    assert bec_bound_dual_side(10, 0.5, 0) == 1.0
    assert bec_bound_dual_side(10, 0.5, 10) == 1.0
    n = 16
    got = bec_bound_dual_side(n, 0.5, n // 4)
    assert got == pytest.approx(2.0 ** (2 * LN2 * n / 4), abs=1e-9)
    assert bec_bound_dual_side(8, 0.3, 3) == bec_bound_dual_side(8, 0.3, 5)
    with pytest.raises(ValueError):
        bec_bound_dual_side(8, 1.0, 2)


def test_bec_primal_side_branches():
    n, rate, size = 16, 11 / 16, 1 << 11
    theta = rate ** (2 * LN2)
    assert bec_bound_primal_side(n, rate, 0, size) == pytest.approx(
        size / (1 + theta) ** n, abs=1e-9
    )
    mid = bec_bound_primal_side(n, rate, n // 2, size)
    assert mid == pytest.approx(comb(n, n // 2) * size / 2.0**n, abs=1e-9)
    # the branch threshold (1-theta) n / 2 is about 3.24 here: weight 3 takes
    # the enumerator branch, weight 4 the binomial one
    assert 3 <= (1 - theta) / 2 * n <= 4
    low = bec_bound_primal_side(n, rate, 3, size)
    assert low == pytest.approx(size / ((1 - theta) ** 3 * (1 + theta) ** 13), abs=1e-6)
    got = bec_bound_primal_side(n, rate, 4, size)
    assert got == pytest.approx(comb(n, 4) * size / 2.0**n, abs=1e-9)


def test_sberlo_examples():
    assert sberlo_exponent(64, 0.5, 1) == pytest.approx(225.0, abs=1e-12)
    assert sberlo_bound(64, 0.5, 1) == pytest.approx(2.0**225, rel=1e-12)
    assert sberlo_bound(64, 0.5, 16) == math.inf  # exponent 1680 overflows
    exps = [sberlo_exponent(64, 0.5, k) for k in range(1, 17)]
    assert all(b > a for a, b in zip(exps, exps[1:]))
    with pytest.raises(ValueError):
        sberlo_exponent(64, 0.5, 0)


def test_sberlo_comparison_favors_dual_side():
    rows = sberlo_comparison_rows(64, 0.5, 16)
    assert len(rows) == 16
    assert all(r["dual_side_smaller"] for r in rows)
    assert all(r["dual_side_exponent"] < r["comparison_exponent"] for r in rows)
    assert bec_dual_exponent(0.5, 1) == pytest.approx(2 * LN2, abs=1e-12)


# ---------------------------------------------------------------------------
# Reed-Muller
# ---------------------------------------------------------------------------

def test_reed_muller_dimensions():
    assert reed_muller(0, 4).k == 1
    assert reed_muller(4, 4).k == 16
    rm = reed_muller(1, 3)
    assert (rm.n, rm.k) == (8, 4)
    assert reed_muller(2, 4).k == 1 + 4 + 6
    with pytest.raises(ValueError):
        reed_muller(3, 2)


def test_reed_muller_duality():
    for r, m in [(0, 3), (1, 3), (1, 4), (2, 4)]:
        dual = reed_muller(r, m).dual
        expected = reed_muller(m - r - 1, m)
        assert brute_codewords(dual) == brute_codewords(expected)


def test_mc_deficiency_past_63_coordinates():
    # E d(T) = lam n - E rank T, and rank T = 7 for all but a negligible share
    # of T at lam = 0.9
    ((mean, stderr),) = deficiency_expectation(reed_muller(1, 6), [0.9], mode="mc", seed=1)
    assert abs(mean - (0.9 * 64 - 7)) <= 4 * stderr


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_code_file_roundtrip(tmp_path):
    code = reed_muller(1, 3)
    path = tmp_path / "rm13.code"
    dump_bit_matrix(code.generator, code.n, str(path))
    back = load_code(str(path))
    assert back.generator == code.generator and back.n == 8


def test_code_file_errors(tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("2 3\n101\n")
    with pytest.raises(ValueError, match="expected 2 rows"):
        load_code(str(bad))
    dep = tmp_path / "dep.code"
    dep.write_text("2 2\n11\n11\n")
    with pytest.raises(ValueError, match="dependent"):
        load_code(str(dep))
