import math
import tracemalloc
import weakref
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import dirichlet_form as edge_dirichlet_form
from references import entropy, expand_to_cube, loop_butterfly, noise_operator

from cubenoise import cube
from cubenoise.cube import (
    CubeFunction,
    character,
    compact_conditional_expectations,
    conditional_expectation,
    dirichlet_forms,
    full_mask,
    log_lq_norms,
    noise_blocks,
    popcounts,
    size_cap,
    subset_lattice,
    wht_forward,
)


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately naive)
# ---------------------------------------------------------------------------

def oracle_wht(values):
    n = int(math.log2(len(values)))
    out = []
    for r in range(len(values)):
        acc = 0.0
        for x in range(len(values)):
            acc += values[x] * (-1) ** bin(x & r).count("1")
        out.append(acc / len(values))
    return out


def oracle_noise(values, eps):
    n = int(math.log2(len(values)))
    out = []
    for x in range(len(values)):
        acc = 0.0
        for y in range(len(values)):
            d = bin(x ^ y).count("1")
            acc += eps**d * (1 - eps) ** (n - d) * values[y]
        out.append(acc)
    return out


def oracle_cond_exp(values, t_mask):
    out = []
    for x in range(len(values)):
        fiber = [values[y] for y in range(len(values)) if (y & t_mask) == (x & t_mask)]
        out.append(sum(fiber) / len(fiber))
    return out


def rand_fn(n, seed):
    return CubeFunction(n, np.random.default_rng(seed).random(1 << n))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_wht_constant():
    f = CubeFunction(3, np.full(8, 2.5))
    s = wht_forward(f)
    assert s[0] == pytest.approx(2.5, abs=1e-14)
    assert np.allclose(s[1:], 0.0, atol=1e-14)


def test_wht_two_point():
    # frozen from the 2-point evaluation of E f w_R
    s = wht_forward(CubeFunction(1, [2.0, 0.0]))
    assert s.tolist() == [1.0, 1.0]


def test_wht_character_is_delta():
    for r in (0b011, 0b100, 0b111):
        s = wht_forward(character(3, r))
        expect = np.zeros(8)
        expect[r] = 1.0
        assert np.allclose(s, expect, atol=1e-14)


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_wht_matches_oracle_and_roundtrips(n):
    f = rand_fn(n, 100 + n)
    s = wht_forward(f)
    if n <= 8:
        assert np.allclose(s, oracle_wht(f.values.tolist()), atol=1e-12)
    back = cube._butterfly(s)  # the inverse transform: butterflies without the 2^-n
    scale = np.abs(f.values).max()
    assert np.abs(back - f.values).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 6, 12])
def test_parseval(n):
    f = rand_fn(n, 7 * n + 1)
    s = wht_forward(f)
    lhs = float(np.mean(f.values**2))
    rhs = float(np.sum(s**2))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 13])
def test_popcounts_fresh_per_call(n):
    # both sides of the 2^10 switch between its two constructions
    pc = popcounts(n)
    assert pc.dtype == np.int64
    assert pc.tolist() == [t.bit_count() for t in range(1 << n)]
    pc[:] = -1  # a fresh array per call: writing to it changes no later call
    assert popcounts(n).tolist() == [t.bit_count() for t in range(1 << n)]


def level_loop_zeta(values, op=np.add):
    """Subset sums in place, one level per bit in ascending order, each level
    one strided `op` over the whole table."""
    size, h = values.shape[0], 1
    while h < size:
        v = values.reshape(-1, 2, h)
        op(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
        h <<= 1
    return values


@pytest.mark.parametrize("n", range(18))
def test_zeta_float_bit_identical_to_level_loop(n):
    # n = 17 spans two 2^16-value blocks; the scale spread makes the sums
    # depend on the order of the adds
    rng = np.random.default_rng(300 + n)
    values = rng.standard_normal(1 << n) * np.exp2(rng.integers(-40, 40, 1 << n))
    got = cube._zeta(values.copy())
    assert got.view(np.uint64).tolist() == level_loop_zeta(values.copy()).view(np.uint64).tolist()


@pytest.mark.parametrize("n", [0, 3, 7, 8, 16, 17])
def test_zeta_with_bitwise_or_is_the_union_over_subsets(n):
    # the bit sets of the deficiency histogram: one bit per value, as uint16
    rng = np.random.default_rng(340 + n)
    values = np.left_shift(1, rng.integers(0, 16, 1 << n, dtype=np.uint8), dtype=np.uint16)
    values[rng.random(1 << n) < 0.7] = 0
    got = cube._zeta(values.copy(), op=np.bitwise_or)
    assert got.dtype == np.uint16
    assert np.array_equal(got, level_loop_zeta(values.copy(), op=np.bitwise_or))
    if n <= 8:
        masks = np.arange(1 << n)
        unions = [np.bitwise_or.reduce(values[masks & ~t == 0]) for t in range(1 << n)]
        assert got.tolist() == unions


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
@pytest.mark.parametrize("n", [0, 3, 7, 8, 16, 17])
def test_zeta_integers_equal_level_loop_and_wrap(dtype, n):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(n)
    values = rng.integers(info.min, info.max, 1 << n, endpoint=True, dtype=dtype)
    got = cube._zeta(values.copy())
    assert got.dtype == dtype
    assert np.array_equal(got, level_loop_zeta(values.copy()))
    # the full-set sum wraps modulo 2^bits, as numpy integer adds do
    assert int(got[-1]) == (int(values.astype(np.int64).sum()) - info.min) % (1 << info.bits) + info.min


def test_dimension_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        CubeFunction(size_cap("CUBENOISE_MAX_N") + 1, [0.0])


def test_dimension_cap_env_override(monkeypatch):
    monkeypatch.setenv("CUBENOISE_MAX_N", "2")
    assert size_cap("CUBENOISE_MAX_N") == 2
    with pytest.raises(ValueError, match="cap"):
        CubeFunction(3, np.zeros(8))
    monkeypatch.delenv("CUBENOISE_MAX_N")
    assert size_cap("CUBENOISE_MAX_N") == 24


def test_value_length_checked():
    with pytest.raises(ValueError):
        CubeFunction(2, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# noise operator
# ---------------------------------------------------------------------------

def test_noise_identity_and_total():
    f = rand_fn(3, 5)
    assert noise_operator(f, 0.0).values.tolist() == f.values.tolist()
    total = noise_operator(f, 0.5)
    assert np.allclose(total.values, f.mean(), atol=1e-15)


def test_noise_two_point_frozen():
    out = noise_operator(CubeFunction(1, [2.0, 0.0]), 0.1)
    assert np.allclose(out.values, [1.8, 0.2], atol=1e-15)


@pytest.mark.parametrize("n,eps", [(2, 0.3), (4, 0.1), (6, 0.45)])
def test_noise_matches_direct_convolution(n, eps):
    f = rand_fn(n, 31 * n)
    out = noise_operator(f, eps)
    assert np.allclose(out.values, oracle_noise(f.values.tolist(), eps), atol=1e-12)


def test_noise_spectral_multiplier():
    f = rand_fn(4, 50)
    eps = 0.23
    before = wht_forward(f)
    after = wht_forward(noise_operator(f, eps))
    for r in range(16):
        factor = (1 - 2 * eps) ** bin(r).count("1")
        assert after[r] == pytest.approx(factor * before[r], abs=1e-13)


def test_noise_semigroup():
    f = rand_fn(4, 9)
    for eps, rho in [(0.1, 0.2), (0.0, 0.3), (0.25, 0.25)]:
        once = noise_operator(noise_operator(f, eps), rho)
        combined = noise_operator(f, eps + rho - 2 * eps * rho)
        assert np.abs(once.values - combined.values).max() <= 1e-12


def test_noise_preserves_mean_and_sign():
    f = rand_fn(5, 77)
    out = noise_operator(f, 0.17)
    assert out.mean() == pytest.approx(f.mean(), abs=1e-13)
    assert out.values.min() >= -1e-13


def assert_butterfly_in_place(values, want):
    # the kernel transforms its argument and returns it, whatever the
    # parity of its level count, with the loop's bits in every row
    got = cube._butterfly(values)
    assert got is values
    assert np.array_equal(values.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", range(16))
def test_butterfly_is_the_level_loop_bit_for_bit(n):
    # magnitudes over 16 decades, so that another order of adds rounds apart
    rng = np.random.default_rng(n)
    x = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-8, 9, 1 << n)
    assert_butterfly_in_place(x.copy(), loop_butterfly(x.copy()))


@pytest.mark.parametrize("rows", [1, 3, 11, 20])
@pytest.mark.parametrize("n", [0, 1, 7, 10])
def test_butterfly_block_rows_are_rows_alone(rows, n):
    x = np.random.default_rng(rows * 17 + n).standard_normal((rows, 1 << n))
    assert_butterfly_in_place(x.copy(), np.array([loop_butterfly(row.copy()) for row in x]))


def test_butterfly_row_past_the_norms_block():
    # 2^17 values: one row longer than _NORMS_BLOCK, an odd level count
    assert cube._NORMS_BLOCK < 1 << 17
    x = np.random.default_rng(17).random(1 << 17) ** 3
    assert_butterfly_in_place(x.copy(), loop_butterfly(x.copy()))


def loop_noise_operator(f, eps):
    """T_eps f as one forward and one inverse transform of its own: the
    rounding that every noise-table row keeps."""
    if eps == 0.0:
        return f.values.copy()
    if eps == 0.5:
        return np.full(1 << f.n, f.mean())
    coeffs = loop_butterfly(f.values.copy())
    coeffs /= 1 << f.n
    return loop_butterfly(coeffs * (1.0 - 2.0 * eps) ** popcounts(f.n))


NOISE_GRID = (0.0, 0.05, 0.1, 0.17, 0.25, 0.3, 0.45, 0.5, 1e-9, 0.5 - 1e-9, 0.0, 0.2)


@pytest.mark.parametrize("n", range(11))
def test_noise_table_rows_are_one_transform_pair_each(n):
    # the table of T_eps f, a row per eps, as noise_blocks yields it
    f = CubeFunction(n, np.random.default_rng(n).random(1 << n) ** 3 * 10.0)
    table = np.concatenate(list(noise_blocks(f, NOISE_GRID)))
    assert table.shape == (len(NOISE_GRID), 1 << n)
    for row, eps in zip(table, NOISE_GRID):
        want = loop_noise_operator(f, eps)
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
        got = noise_operator(f, eps).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("block", [1, 2, 48, 1 << 16])
def test_noise_blocks_split_the_grid_in_order(monkeypatch, block):
    # blocks of whole rows, within the budget (one row past it), in grid
    # order, and the same bits however the grid is split
    monkeypatch.setattr(cube, "_NORMS_BLOCK", block)
    f = rand_fn(4, 61)
    blocks = list(noise_blocks(f, NOISE_GRID))
    assert all(b.shape[0] == max(1, block >> 4) for b in blocks[:-1])
    got = np.concatenate(blocks)
    for row, eps in zip(got, NOISE_GRID):
        assert np.array_equal(row.view(np.uint64), loop_noise_operator(f, eps).view(np.uint64))


def test_noise_table_takes_one_forward_transform(monkeypatch):
    calls = []
    monkeypatch.setattr(cube, "wht_forward", lambda f: calls.append(f) or wht_forward(f))
    f = rand_fn(5, 3)
    list(noise_blocks(f, NOISE_GRID))
    assert len(calls) == 1
    list(noise_blocks(f, (0.0, 0.5, 0.0)))  # no interior eps: no transform
    assert len(calls) == 1


def test_noise_table_keeps_the_finiteness_check():
    # the butterflies of 1e308-scale values overflow, as do their means
    f = CubeFunction(2, [1.7e308, 1.7e308, 1.7e308, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for eps in (0.25, 0.5):
            with pytest.raises(ValueError, match="values must be finite"):
                list(noise_blocks(f, (0.0, eps)))
            with pytest.raises(ValueError, match="values must be finite"):
                noise_operator(f, eps)


def test_noise_rate_validated():
    f = rand_fn(2, 1)
    for bad in (-0.01, 0.51, 1.0):
        with pytest.raises(ValueError):
            noise_operator(f, bad)


# ---------------------------------------------------------------------------
# conditional expectation
# ---------------------------------------------------------------------------

def test_cond_exp_trivial_masks():
    f = rand_fn(3, 2)
    assert conditional_expectation(f, full_mask(3)).values.tolist() == f.values.tolist()
    assert np.allclose(conditional_expectation(f, 0).values, f.mean(), atol=1e-15)


def test_cond_exp_two_coordinates():
    # point mass 4 at the origin of {0,1}^2; conditioning on coordinate 1
    # averages over coordinate 2, leaving 2 on the fiber x1 = 0.
    f = CubeFunction(2, [4.0, 0.0, 0.0, 0.0])
    assert conditional_expectation(f, 0b01).values.tolist() == [2.0, 0.0, 2.0, 0.0]
    assert conditional_expectation(f, 0b10).values.tolist() == [2.0, 2.0, 0.0, 0.0]


@pytest.mark.parametrize("t_mask", [0b0101, 0b0011, 0b1110, 0b1000])
def test_cond_exp_matches_oracle(t_mask):
    f = rand_fn(4, 13)
    got = conditional_expectation(f, t_mask)
    assert np.allclose(got.values, oracle_cond_exp(f.values.tolist(), t_mask), atol=1e-13)


def test_cond_exp_spectrum_truncation_and_mean():
    f = rand_fn(4, 21)
    t = 0b1010
    s = wht_forward(conditional_expectation(f, t))
    sf = wht_forward(f)
    for r in range(16):
        if r & ~t:
            assert abs(s[r]) <= 1e-13
        else:
            assert s[r] == pytest.approx(sf[r], abs=1e-13)
    assert conditional_expectation(f, t).mean() == pytest.approx(f.mean(), abs=1e-14)


def test_cond_exp_tower_property_exact_on_dyadic():
    # integer-valued f keeps every average exactly representable, so the
    # tower property holds bit for bit regardless of evaluation order
    rng = np.random.default_rng(3)
    f = CubeFunction(5, rng.integers(0, 16, 32).astype(float))
    for s_mask, t_mask in [(0b10110, 0b01111), (0b00001, 0b11111), (0b11000, 0b00110)]:
        twice = conditional_expectation(conditional_expectation(f, t_mask), s_mask)
        once = conditional_expectation(f, s_mask & t_mask)
        assert twice.values.tolist() == once.values.tolist()


def test_cond_exp_tower_property_float():
    f = rand_fn(4, 4)
    rng = np.random.default_rng(8)
    for _ in range(10):
        s_mask = int(rng.integers(0, 16))
        t_mask = int(rng.integers(0, 16))
        twice = conditional_expectation(conditional_expectation(f, t_mask), s_mask)
        once = conditional_expectation(f, s_mask & t_mask)
        assert np.abs(twice.values - once.values).max() <= 1e-12


def loop_cond_exp(values, n, t_mask):
    """Reference: one in-place pass over the whole cube per coordinate outside
    T, in ascending order; its rounding is what the recorded reference values
    pin."""
    arr = np.array(values, dtype=np.float64)
    for i in range(n):
        if t_mask >> i & 1:
            continue
        v = arr.reshape(-1, 2, 1 << i)
        m = 0.5 * (v[:, 0, :] + v[:, 1, :])
        v[:, 0, :] = m
        v[:, 1, :] = m
    return arr


EDGE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])


@st.composite
def edge_functions(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    values = st.one_of(EDGE_VALUES, st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300))
    return n, draw(st.lists(values, min_size=1 << n, max_size=1 << n))


@settings(max_examples=60, deadline=None)
@given(edge_functions())
def test_cond_exp_bit_identical_to_loop(case):
    n, values = case
    f = CubeFunction(n, values)
    for t_mask in range(1 << n):
        got = conditional_expectation(f, t_mask).values
        want = loop_cond_exp(values, n, t_mask)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t_mask


def compact_points(n, t_mask):
    """The points x inside T, in the order of E(f|T)'s compact table: bit b of
    the compact index is the b-th lowest coordinate of T."""
    coords = [i for i in range(n) if t_mask >> i & 1]
    return [
        sum(1 << c for b, c in enumerate(coords) if j >> b & 1) for j in range(1 << len(coords))
    ]


@settings(max_examples=60, deadline=None)
@given(edge_functions())
def test_subset_lattice_rows_are_conditional_expectations(case):
    n, values = case
    f = CubeFunction(n, values)
    seen = []
    for expected_k, (k, masks, tables) in zip(range(n, -1, -1), subset_lattice(f)):
        assert k == expected_k
        assert tables.shape == (math.comb(n, k), 1 << k)
        for t_mask, row in zip(masks.tolist(), tables):
            assert t_mask.bit_count() == k
            want = conditional_expectation(f, t_mask).values[compact_points(n, t_mask)]
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), t_mask
            seen.append(t_mask)
    assert sorted(seen) == list(range(1 << n))


@pytest.mark.parametrize("n", range(13))
def test_subset_lattice_parents_of_h_are_a_closed_form_prefix(n):
    # the walk takes the parents that lose h as the first C(h, k - n + h)
    # rows of layer k without looking at the masks: every size-k mask is
    # listed in descending order, and exactly those rows hold every
    # coordinate from h up
    f = CubeFunction(n, np.zeros(1 << n))
    for k, masks, _ in subset_lattice(f):
        want = sorted((m for m in range(1 << n) if m.bit_count() == k), reverse=True)
        assert masks.tolist() == want
        for h in range(n - k, n + 1):
            high = full_mask(n) & ~((1 << h) - 1)
            holds = (masks & high) == high
            rows = math.comb(h, k - n + h)
            assert holds[:rows].all() and not holds[rows:].any(), (k, h)


def loop_compact_cond_exp(values, n, t_mask):
    """Reference: E(f|T)'s compact table from its own chain of ascending
    halvings, one per coordinate outside T, as each mask was built before the
    masks shared their halvings."""
    v, position = np.array(values, dtype=np.float64), 0  # position: bit of coordinate i in v
    for i in range(n):
        if t_mask >> i & 1:
            position += 1
        else:
            w = v.reshape(-1, 2, 1 << position)
            v = (0.5 * (w[:, 0, :] + w[:, 1, :])).reshape(-1)
    return v


@settings(max_examples=60, deadline=None)
@given(edge_functions(), st.data())
def test_walk_yields_each_mask_once_bit_identical_to_loop(case, data):
    n, values = case
    f = CubeFunction(n, values)
    masks = data.draw(st.sets(st.integers(0, full_mask(n)), max_size=40))
    masks |= data.draw(st.sets(st.sampled_from([0, full_mask(n)])))
    halve, halved = cube._halve, []

    def tracked(*args):
        out = halve(*args)
        halved.append(weakref.ref(out))
        return out

    seen = []
    with mock.patch.object(cube, "_halve", tracked):
        # each mask twice, in a shuffled order: the walk sorts and dedups
        order = data.draw(st.permutations(sorted(masks) * 2))
        for t_mask, table in compact_conditional_expectations(f, order):
            seen.append(t_mask)
            want = loop_compact_cond_exp(values, n, t_mask)
            assert np.array_equal(table.view(np.uint64), want.view(np.uint64)), t_mask
            # the stack of prefix tables, the one just yielded on top
            alive = sum(ref().size for ref in halved if ref() is not None)
            assert alive < 1 << n
    assert sorted(seen) == sorted(masks)
    # of two masks, the one missing the lowest coordinate they differ in first
    assert seen == sorted(seen, key=lambda t: [t >> i & 1 for i in range(n)])


def test_mask_validated():
    f = rand_fn(2, 0)
    with pytest.raises(ValueError):
        conditional_expectation(f, 4)


def spread_fn(n, seed):
    """Values of both signs spread over 2^-30 to 2^30, so that every sum's
    rounding depends on its operands."""
    rng = np.random.default_rng(seed)
    return CubeFunction(n, rng.standard_normal(1 << n) * np.exp2(rng.integers(-30, 31, 1 << n)))


def test_cond_exp_takes_no_compact_route(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("conditional_expectation works on the cube")

    for name in ("compact_conditional_expectations", "subset_lattice", "_halve"):
        monkeypatch.setattr(cube, name, refused)
    f = spread_fn(5, 7)
    for t_mask in range(1 << 5):
        got = conditional_expectation(f, t_mask).values
        assert np.array_equal(got.view(np.uint64), loop_cond_exp(f.values, 5, t_mask).view(np.uint64))


@pytest.mark.parametrize("n", range(9))
def test_cond_exp_is_the_fourier_truncation_to_subsets_of_t(n):
    # E(f|T) keeps the coefficient of every R contained in T and drops the
    # rest; the two roundings differ by at most 1.9e-16 of max |f| up to n = 8
    f = spread_fn(n, 90 + n)
    coeffs, masks = wht_forward(f), np.arange(1 << n)
    for t_mask in range(1 << n):
        want = np.where(masks & ~t_mask == 0, coeffs, 0.0)
        cube._butterfly(want)
        got = conditional_expectation(f, t_mask).values
        assert np.abs(got - want).max() <= 1e-15 * np.abs(f.values).max(), t_mask


@pytest.mark.parametrize("n", range(11))
def test_cond_exp_keeps_the_bits_of_the_compact_walk_laid_out_on_the_cube(n):
    # the compact walk's table of each mask, copied to the cube, was
    # conditional_expectation itself before it worked on the cube
    f = spread_fn(n, 110 + n)
    for t_mask, table in compact_conditional_expectations(f, range(1 << n)):
        want = expand_to_cube(n, t_mask, table).values
        got = conditional_expectation(f, t_mask).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t_mask


def split_masks(n, rng):
    """Every split of T over the pair coordinates {0, 1, 2}, the lane
    coordinates {3..6} and the pair coordinates from 7 up (none of them,
    all, or a random part), the empty and full masks among them."""
    high = full_mask(n) & ~0x7F
    masks = {
        (low | lane << 3 | top) & full_mask(n)
        for low in range(8)
        for lane in range(16)
        for top in (0, high, int(rng.integers(0, 1 << n)) & high)
    }
    return np.array(sorted(masks))


LAYOUT_TABLES = {
    "signed": lambda rng, size: rng.standard_normal(size) * np.exp2(rng.integers(-30, 30, size)),
    "g log2 g": lambda rng, size: (lambda g: g * np.log2(g))(rng.random(size) + 1e-3),
    "subnormal": lambda rng, size: rng.random(size) * 1e-310,
    "near 1e300": lambda rng, size: (rng.random(size) + 0.5) * 1e300,
    # g log2 g with 0 log2 0 = 0, as the entropy kernel sums it
    "zeros": lambda rng, size: (lambda g: g * np.log2(np.where(g > 0.0, g, 1.0)))(
        rng.random(size) * (rng.random(size) < 0.5)
    ),
    # past 2^(1000 - n), where most sums overflow to inf (-inf negated)
    "past 2^990": lambda rng, size: (rng.random(size) + 0.5) * np.exp2(rng.integers(990, 1024, size)),
    "g log2 g past 2^990": lambda rng, size: (lambda g: g * np.log2(g))(
        (rng.random(size) + 0.5) * np.exp2(rng.integers(990, 1013, size))
    ),
}


# 0-2 coordinates sum one after another, 3-7 in eight lanes alone, and past
# 7 pair the lane sums over coordinates 7 and up (cube._pairwise_order).
@pytest.mark.parametrize("kind", LAYOUT_TABLES)
@pytest.mark.parametrize("n", range(15))
def test_layout_sums_are_numpys_sums_of_the_cube_tables(n, kind):
    rng = np.random.default_rng(n)
    masks = split_masks(n, rng)
    tables = [LAYOUT_TABLES[kind](rng, 1 << t.bit_count()) for t in masks.tolist()]
    with np.errstate(over="ignore"):
        got = cube._layout_sums(n, masks, np.stack([np.concatenate(tables)] * 2, axis=1) * [1.0, -1.0])
        want = np.array(
            [[np.add.reduce(expand_to_cube(n, t, sign * g).values) for sign in (1.0, -1.0)]
             for t, g in zip(masks.tolist(), tables)]
        )
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
        "numpy's pairwise summation changed: cube._layout_sums no longer replays "
        "np.add.reduce of a 2^n table (cube._pairwise_order describes the tree it expects)"
    )


# ---------------------------------------------------------------------------
# norms, entropies, Dirichlet form
# ---------------------------------------------------------------------------

def lq_norm(f, q):
    """||f||_q, from the one-table call of log_lq_norms."""
    return math.exp(log_lq_norms(f.values, (q,))[0])


def test_lq_norm_examples():
    c = CubeFunction(3, np.full(8, 1.7))
    for q in (1, 2, 3.5, math.inf):
        assert lq_norm(c, q) == pytest.approx(1.7, abs=1e-14)
    f = CubeFunction(1, [2.0, 0.0])
    assert lq_norm(f, 2) == pytest.approx(math.sqrt(2), abs=1e-14)
    assert log_lq_norms(f.values, (math.inf,))[0] == math.log(2.0)
    with pytest.raises(ValueError):
        log_lq_norms(f.values, (0.5,))


def test_log_lq_norms_rejects_a_nan_exponent():
    with pytest.raises(ValueError, match="norm exponent must be >= 1, got nan"):
        log_lq_norms(rand_fn(2, 1).values, (2.0, math.nan))


def test_log_lq_norm_consistent():
    f = rand_fn(4, 44)
    for q in (1.0, 1.5, 2, 8):
        want = math.log(np.mean(f.values**q)) / q
        assert log_lq_norms(f.values, (q,))[0] == pytest.approx(want, abs=1e-12)
    assert log_lq_norms(f.values, (math.inf,))[0] == pytest.approx(math.log(f.values.max()))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.sampled_from([0.0, -1e-17]), st.floats(0.0, 1e6)),
                min_size=1 << n,
                max_size=1 << n,
            ),
            min_size=1,
            max_size=5,
        )
    ),
    st.lists(st.sampled_from([1.0, 1.1, 2.0, 3.5, 8.0, math.inf]), min_size=1, max_size=4),
)
def test_log_lq_norms_rows_are_log_lq_norm(rows, q_grid):
    tables = np.array(rows)
    got = log_lq_norms(tables, q_grid)
    assert got.shape == (len(q_grid), len(rows))
    for i, row in enumerate(rows):
        for j, q in enumerate(q_grid):
            assert got[j, i] == log_lq_norms(np.array(row), (q,))[0]
            want = oracle_log_lq_norm(row, q)
            if want == -math.inf:  # a zero table, or roundoff below zero at q = inf
                assert got[j, i] == -math.inf
            else:
                assert got[j, i] == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("width", [1, 64, 1 << 17])
def test_log_lq_norms_blocks_match_one_block(monkeypatch, width):
    # past 2^16 values a table spans several blocks of rows (or, one row
    # longer than a block, one block per row); one block must give the same
    # bits
    rng = np.random.default_rng(width)
    tables = rng.random(((3 << 16) // width + 5, width)) ** 3
    tables[1] = 0.0
    tables[-1, ::2] = 0.0
    q_grid = (1.0, 1.1, 2.0, 3.5, 8.0, math.inf)
    got = log_lq_norms(tables, q_grid)
    monkeypatch.setattr(cube, "_NORMS_BLOCK", tables.size)
    want = log_lq_norms(tables, q_grid)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def oracle_log_lq_norm(row, q):
    """ln (mean g^q)^(1/q) in 50-digit arithmetic, which neither underflows on
    subnormal entries nor overflows; the -1e-17 entries of the strategy are
    roundoff and count as 0, and q = inf gives ln max g."""
    with mpmath.workdps(50):
        g = [mpmath.mpf(max(v, 0.0)) for v in row]
        if q == math.inf:
            top = max(g)
            return float(mpmath.log(top)) if top > 0 else -math.inf
        moment = mpmath.fsum(v**q for v in g) / len(g)
        return float(mpmath.log(moment) / q) if moment > 0 else -math.inf


def loop_log_lq_norms(tables, q_grid):
    """log_lq_norms as one pass per q over every row: max, scaled rows, the
    power by cube._power, mean, log and division one q at a time."""
    rows = tables.reshape(-1, tables.shape[-1])
    out = np.empty((len(q_grid), rows.shape[0]))
    mx = rows.max(axis=-1)
    positive = mx > 0.0
    safe = np.where(positive, mx, 1.0)
    log_mx = np.where(positive, np.log(safe), -math.inf)
    scaled = cube._clean_values(rows) / safe[:, None]
    for j, q in enumerate(q_grid):
        if q == math.inf:
            out[j] = log_mx
            continue
        moment = np.mean(cube._power(scaled, q, np.empty_like(scaled)), axis=-1)
        out[j] = np.where(positive, log_mx + np.log(np.where(positive, moment, 1.0)) / q, -math.inf)
    return out


NORM_GRID = (1.0, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0, math.inf)
REDUCED_EXPONENTS = tuple(
    1.0 if eps == 0.5 else 1.0 + (q - 1.0) * (1.0 - 2.0 * eps) ** 2
    for q in (1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0)
    for eps in (round(0.05 * i, 2) for i in range(11))
)


def norm_tables(rows, width, seed):
    """Random rows with a zero row, zero entries and -1e-17 roundoff."""
    rng = np.random.default_rng(seed)
    tables = rng.random((rows, width)) ** 3
    tables[0] = 0.0
    if rows > 1:
        tables[1, ::3] = -1e-17
    if rows > 2:
        tables[2, ::2] = 0.0
    return tables


@pytest.mark.parametrize("q_grid", [NORM_GRID, REDUCED_EXPONENTS, (2.0,), (math.inf,), (2,)])
@pytest.mark.parametrize("rows,width", [(1, 1), (3, 2), (40, 16), (300, 256), (3, 1 << 14)])
def test_log_lq_norms_bit_identical_to_a_loop_over_q(q_grid, rows, width):
    tables = norm_tables(rows, width, rows * width)
    got = log_lq_norms(tables, q_grid)
    want = loop_log_lq_norms(tables, q_grid)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("budget", [1, 64, 1000, 1 << 12])
@pytest.mark.parametrize("q_grid", [NORM_GRID, REDUCED_EXPONENTS])
def test_log_lq_norms_grids_across_block_boundaries(monkeypatch, budget, q_grid):
    # small budgets split the rows, and then the q grid of a row, into
    # several blocks; the bits are the loop's whatever the split
    monkeypatch.setattr(cube, "_NORMS_BLOCK", budget)
    tables = norm_tables(37, 64, budget)
    got = log_lq_norms(tables, q_grid)
    want = loop_log_lq_norms(tables, q_grid)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_log_lq_norms_temporaries_stay_in_half_the_budget():
    # a block holds rows x (finite q + 2) tables of at most half of
    # _NORMS_BLOCK values, or one table at a time for a row past that
    tables = np.random.default_rng(5).random((64, 1 << 12))
    for q_grid in (NORM_GRID, REDUCED_EXPONENTS):
        log_lq_norms(tables, q_grid)  # warm
        tracemalloc.start()
        try:
            log_lq_norms(tables, q_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * cube._NORMS_BLOCK // 2 + (64 << 10)


def test_norm_contraction_under_noise_and_conditioning():
    f = rand_fn(4, 91)
    base = {q: lq_norm(f, q) for q in (1.2, 2, 3, math.inf)}
    for q, b in base.items():
        for eps in (0.05, 0.25, 0.5):
            assert lq_norm(noise_operator(f, eps), q) <= b + 1e-12
        for t_mask in (0, 0b0101, 0b1111, 0b0010):
            assert lq_norm(conditional_expectation(f, t_mask), q) <= b + 1e-12


def test_entropy_examples():
    assert entropy(CubeFunction(2, [3.0] * 4)) == 0.0
    assert entropy(CubeFunction(1, [2.0, 0.0])) == pytest.approx(1.0, abs=1e-14)
    # scaled indicator of a 3-point set in {0,1}^3
    vals = np.zeros(8)
    vals[[1, 4, 6]] = 8.0 / 3.0
    assert entropy(CubeFunction(3, vals)) == pytest.approx(3 - math.log2(3), abs=1e-12)
    # homogeneity
    f = rand_fn(3, 17)
    assert entropy(f.scaled(2.5)) == pytest.approx(2.5 * entropy(f), abs=1e-12)
    assert entropy(f) >= 0.0
    with pytest.raises(ValueError):
        entropy(CubeFunction(1, [0.0, 0.0]))


def test_log_lq_norms_rejects_significantly_negative_values():
    tables = np.array([[1.0, 0.5, 0.25, 0.0], [1.0, -1e-6, 0.5, 0.5]])
    with pytest.raises(ValueError, match="significantly negative values"):
        log_lq_norms(tables, (2.0,))


def test_entropies_rejects_significantly_negative_values():
    tables = np.array([[1.0, 0.5, 0.25, 0.0], [1.0, -1e-6, 0.5, 0.5]])
    with pytest.raises(ValueError, match="significantly negative values"):
        cube.entropies(tables)


def test_clean_values_zeroes_roundoff_in_one_row_and_keeps_the_others():
    rng = np.random.default_rng(7)
    tables = rng.random((50, 16))
    tables[::7, 3] = 0.0
    tables[23, 5] = -1e-17
    got = cube._clean_values(tables)
    want = tables.copy()
    want[23, 5] = 0.0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[23, 5] == 0.0 and not np.signbit(got[23, 5])


def dirichlet_form(f, g):
    return dirichlet_forms([f], g)[0]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 14, 16])
def test_dirichlet_forms_have_the_bits_of_one_pair_at_a_time(n):
    # past 2^13 values a product table sums in more than one block, so a
    # change of its shape or order would show
    rng = np.random.default_rng(n)
    g = CubeFunction(n, rng.random(1 << n))
    fs = [CubeFunction(n, rng.random(1 << n) ** q) for q in (0.5, 1.0, 3.0)]
    assert dirichlet_forms(fs, g) == [edge_dirichlet_form(f, g) for f in fs]
    assert dirichlet_forms([], g) == []


def test_dirichlet_form_examples():
    g = rand_fn(3, 3)
    c = CubeFunction(3, np.full(8, 2.0))
    assert dirichlet_form(c, g) == pytest.approx(0.0, abs=1e-14)
    f = CubeFunction(1, [2.0, 0.0])
    assert dirichlet_form(f, f) == pytest.approx(4.0, abs=1e-14)
    for r in (0b001, 0b101, 0b111):
        w = character(3, r)
        assert dirichlet_form(w, w) == pytest.approx(4 * bin(r).count("1"), abs=1e-12)


def test_dirichlet_form_bilinear_symmetric_positive():
    f, g = rand_fn(3, 6), rand_fn(3, 7)
    assert dirichlet_form(f, g) == pytest.approx(dirichlet_form(g, f), abs=1e-12)
    h = CubeFunction(3, 2.0 * f.values + 3.0 * g.values)
    assert dirichlet_form(h, g) == pytest.approx(
        2 * dirichlet_form(f, g) + 3 * dirichlet_form(g, g), abs=1e-11
    )
    assert dirichlet_form(f, f) > 0.0
    with pytest.raises(ValueError):
        dirichlet_form(f, rand_fn(2, 1))
