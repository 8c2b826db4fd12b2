import math

import numpy as np
import pytest

from cubenoise.cube import (
    CubeFunction,
    FourierSpectrum,
    character,
    conditional_expectation,
    dimension_cap,
    dirichlet_form,
    entropy,
    full_mask,
    log_lq_norm,
    lq_norm,
    noise_operator,
    renyi_entropy,
    wht_forward,
    wht_inverse,
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
    assert s.coeffs[0] == pytest.approx(2.5, abs=1e-14)
    assert np.allclose(s.coeffs[1:], 0.0, atol=1e-14)


def test_wht_two_point():
    # frozen from the 2-point evaluation of E f w_R
    s = wht_forward(CubeFunction(1, [2.0, 0.0]))
    assert s.coeffs.tolist() == [1.0, 1.0]


def test_wht_character_is_delta():
    for r in (0b011, 0b100, 0b111):
        s = wht_forward(character(3, r))
        expect = np.zeros(8)
        expect[r] = 1.0
        assert np.allclose(s.coeffs, expect, atol=1e-14)


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_wht_matches_oracle_and_roundtrips(n):
    f = rand_fn(n, 100 + n)
    s = wht_forward(f)
    if n <= 8:
        assert np.allclose(s.coeffs, oracle_wht(f.values.tolist()), atol=1e-12)
    back = wht_inverse(s)
    scale = np.abs(f.values).max()
    assert np.abs(back.values - f.values).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 6, 12])
def test_parseval(n):
    f = rand_fn(n, 7 * n + 1)
    s = wht_forward(f)
    lhs = float(np.mean(f.values**2))
    rhs = float(np.sum(s.coeffs**2))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_wht_inverse_examples():
    assert np.allclose(wht_inverse(FourierSpectrum(2, [3.0, 0, 0, 0])).values, 3.0)
    assert wht_inverse(FourierSpectrum(1, [1.0, 1.0])).values.tolist() == [2.0, 0.0]


def test_dimension_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        CubeFunction(dimension_cap() + 1, [0.0])


def test_dimension_cap_env_override(monkeypatch):
    monkeypatch.setenv("CUBENOISE_MAX_N", "2")
    assert dimension_cap() == 2
    with pytest.raises(ValueError, match="cap"):
        CubeFunction(3, np.zeros(8))
    monkeypatch.delenv("CUBENOISE_MAX_N")
    assert dimension_cap() == 24


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
    before = wht_forward(f).coeffs
    after = wht_forward(noise_operator(f, eps)).coeffs
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
            assert abs(s.coeffs[r]) <= 1e-13
        else:
            assert s.coeffs[r] == pytest.approx(sf.coeffs[r], abs=1e-13)
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


def test_mask_validated():
    f = rand_fn(2, 0)
    with pytest.raises(ValueError):
        conditional_expectation(f, 4)


# ---------------------------------------------------------------------------
# norms, entropies, Dirichlet form
# ---------------------------------------------------------------------------

def test_lq_norm_examples():
    c = CubeFunction(3, np.full(8, 1.7))
    for q in (1, 2, 3.5, math.inf):
        assert lq_norm(c, q) == pytest.approx(1.7, abs=1e-14)
    f = CubeFunction(1, [2.0, 0.0])
    assert lq_norm(f, 2) == pytest.approx(math.sqrt(2), abs=1e-14)
    assert lq_norm(f, math.inf) == 2.0
    with pytest.raises(ValueError):
        lq_norm(f, 0.5)


def test_log_lq_norm_consistent():
    f = rand_fn(4, 44)
    for q in (1.0, 1.5, 2, 8):
        assert log_lq_norm(f, q) == pytest.approx(math.log(lq_norm(f, q)), abs=1e-12)
    assert log_lq_norm(f, math.inf) == pytest.approx(math.log(f.values.max()))


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


def test_renyi_entropy_examples():
    assert renyi_entropy(CubeFunction(2, [1.0] * 4), 3) == pytest.approx(0.0, abs=1e-14)
    n = 4
    point = np.zeros(16)
    point[5] = 16.0
    for q in (1.5, 2, 7):
        assert renyi_entropy(CubeFunction(n, point), q) == pytest.approx(n, abs=1e-12)
    assert renyi_entropy(CubeFunction(1, [2.0, 0.0]), 2) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        renyi_entropy(CubeFunction(1, [2.0, 1.0]), 2)


def test_renyi_limit_is_entropy():
    f = rand_fn(4, 23)
    f = f.scaled(1.0 / f.mean())
    assert renyi_entropy(f, 1 + 1e-4) == pytest.approx(entropy(f), abs=1e-3)


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
