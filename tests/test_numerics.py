import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_aircomp import numerics
from irs_aircomp.numerics import RngStream, array_response, as_generator, sinc_normalized
from steering_bound import gamma, steering_bound


class TestArrayResponse:
    def test_broadside_two_elements(self):
        np.testing.assert_allclose(array_response(2, 0.0, 0.5), [1.0, 1.0])

    def test_endfire_two_elements(self):
        # exp(i*pi) = -1 at half-wavelength spacing
        np.testing.assert_allclose(
            array_response(2, np.pi / 2, 0.5), [1.0, -1.0], atol=1e-12
        )

    def test_single_element_is_one(self):
        np.testing.assert_allclose(array_response(1, 1.234, 0.7), [1.0])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            array_response(0, 0.0, 0.5)

    @pytest.mark.parametrize(
        "angle, spacing",
        [(float("nan"), 0.5), (float("inf"), 0.5), (-np.inf, 0.5), (0.3, float("nan")),
         (0.3, float("inf")), (0.3, 1e308)],
    )
    def test_rejects_non_finite_input(self, angle, spacing):
        with pytest.raises(ValueError, match="must be finite"):
            array_response(4, angle, spacing)

    @pytest.mark.parametrize("spacing", [0.0, -0.5])
    def test_rejects_non_positive_spacing(self, spacing):
        with pytest.raises(ValueError, match="spacing_ratio must be positive"):
            array_response(4, 0.3, spacing)

    @pytest.mark.parametrize("angle", [0.3, -1.2, 0.0, -0.0, np.pi / 2])
    @pytest.mark.parametrize("spacing", [0.5, 2.3])
    def test_block_of_exponentials_then_within_bound(self, angle, spacing):
        # the first split level's 8 elements are the complex chain bit for bit;
        # beyond them, the split kernel's bound (tests/steering_bound.py derives it)
        n = 8192
        want = np.exp(2j * np.pi * spacing * np.sin(angle) * np.arange(n))
        got = array_response(n, angle, spacing)
        split = numerics._SPLIT
        np.testing.assert_array_equal(got[:split].view(np.uint64), want[:split].view(np.uint64))
        slope = 2.0 * np.pi * spacing * np.sin(angle)
        assert np.all(np.abs(got - want) <= steering_bound(1.0, slope, np.arange(n)))

    @pytest.mark.parametrize("angle", [0.3, -1.2, -0.0, 1e-300])
    def test_prefix_of_largest_array_bit_for_bit(self, angle):
        whole = array_response(8192, angle, 0.37)
        block = numerics._STEERING_BLOCK
        for n in (1, 10, block - 1, block, block + 1, 1000, 8191):
            np.testing.assert_array_equal(
                array_response(n, angle, 0.37).view(np.uint64), whole[:n].view(np.uint64)
            )

    @pytest.mark.parametrize("angle", [0.3, -1.2, -0.0])
    def test_prefix_across_split_levels_bit_for_bit(self, angle):
        # each split level's edges: 8 elements, 8 blocks (512) and the 64 blocks past
        whole = array_response(65536, angle, 2.3)
        for n in (7, 8, 9, 511, 512, 513, 4095, 4096, 4097, 32768):
            np.testing.assert_array_equal(
                array_response(n, angle, 2.3).view(np.uint64), whole[:n].view(np.uint64)
            )

    def test_exponentials_per_row(self):
        # 8 + 8 fine and 8 + ceil(n/512) coarse steps past 8 blocks; no level unused
        counts = {n: numerics._split_steps(n)[0].size for n in (5, 10, 64, 65, 512, 2048, 8192)}
        assert counts == {5: 5, 10: 10, 64: 16, 65: 18, 512: 24, 2048: 28, 8192: 40}

    @given(
        n=st.integers(1, 64),
        angle=st.floats(-np.pi / 2 + 1e-9, np.pi / 2),
        spacing=st.floats(0.1, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus_and_leading_one(self, n, angle, spacing):
        a = array_response(n, angle, spacing)
        assert a.shape == (n,)
        assert a[0] == 1.0 + 0.0j
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)


class TestBlockedDot:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, 4096])
    def test_within_the_matvec_bound(self, n):
        # blocks of 64 elements, each one product of one shape, against the (K, n)
        # matvec: each side a complex inner product of n terms, within sqrt(2)
        # gamma(2n + 2) of the sum of the terms' moduli (tests/steering_bound.py)
        rng = np.random.default_rng(n)
        buffer = rng.standard_normal((n, 40)).view(complex)  # element-major, as drawn
        row = np.exp(2j * np.pi * rng.random(n))
        for matrix in (buffer.T, np.ascontiguousarray(buffer.T)):
            got = numerics._blocked_dot(matrix, row)
            moduli = np.abs(matrix) @ np.abs(row)
            bound = 2.0 * math.sqrt(2.0) * gamma(2 * n + 2) * moduli
            assert got.shape == (20,) and np.all(np.abs(got - matrix @ row) <= bound)


class TestRngStream:
    def test_same_stream_bit_identical(self):
        a = as_generator(RngStream(42, 7)).standard_normal(16)
        b = as_generator(RngStream(42, 7)).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = as_generator(RngStream(42, 0)).standard_normal(16)
        b = as_generator(RngStream(42, 1)).standard_normal(16)
        assert not np.allclose(a, b)

    def test_negative_stream_id_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0, -1)

    def test_generator_passthrough_advances(self):
        gen = RngStream(5, 0).generator()
        a = as_generator(gen).standard_normal(8)
        b = as_generator(gen).standard_normal(8)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize(
        "seed, stream_id", [(np.int64(42), 7), (42, np.uint64(7)), (np.int64(-1), np.int32(7))]
    )
    def test_numpy_integers_draw_as_their_ints(self, seed, stream_id):
        # np.int64 & (2**64 - 1) overflowed in generator()
        stream = RngStream(seed, stream_id)
        assert stream == RngStream(int(seed), int(stream_id))
        assert (type(stream.seed), type(stream.stream_id)) == (int, int)
        want = RngStream(int(seed), int(stream_id)).generator().bit_generator.random_raw(4)
        np.testing.assert_array_equal(stream.generator().bit_generator.random_raw(4), want)

    @pytest.mark.parametrize(
        "name, args",
        [("seed", (1.5, 1)), ("seed", (True, 1)), ("seed", ("1", 1)),
         ("stream_id", (1, 1.5)), ("stream_id", (1, False)), ("stream_id", (1, np.float64(3)))],
    )
    def test_non_integer_parts_rejected(self, name, args):
        # a float id would be truncated into a counter word, aliasing another stream
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            RngStream(*args)

    def test_neighbouring_streams_disjoint(self):
        # streams sit 2**128 blocks apart in the counter: no shared raw output
        for seed, s in ((0, 0), (7, 3), (2**64 - 1, 2**64 - 2)):
            a = RngStream(seed, s).generator().bit_generator.random_raw(10**4)
            b = RngStream(seed, s + 1).generator().bit_generator.random_raw(10**4)
            assert np.intersect1d(a, b).size == 0

    def test_alias_pair_draws_differently(self):
        # a 32-bit split of the pair would give both the same words
        a = RngStream(3 + 2**32, 7).generator().bit_generator.random_raw(4)
        b = RngStream(3, 1 + 7 * 2**32).generator().bit_generator.random_raw(4)
        assert not np.array_equal(a, b)


class TestRewinder:
    """The engine's one Philox, rewound per stream, draws as a fresh stream."""

    SEED = 3 + 2**40

    @pytest.mark.parametrize("leftover", ["half-word", "raw buffer"])
    def test_rewind_equals_fresh_stream(self, leftover):
        rewind = numerics._rewinder(self.SEED)
        gen = rewind(5)
        if leftover == "half-word":
            gen.integers(0, 2**32, size=3, dtype=np.uint32)  # odd count: one half-word kept
            assert gen.bit_generator.state["has_uint32"] == 1
        else:
            gen.bit_generator.random_raw(1)  # one of a block's four outputs used
            assert gen.bit_generator.state["buffer_pos"] == 1
        for stream_id in (6, 5, 2**64 - 1, 0, 6):
            got, want = rewind(stream_id), RngStream(self.SEED, stream_id).generator()
            # each comparison ends on an odd half-word count, inside a raw block
            for draw in (
                lambda g: g.integers(0, 2**32, size=5, dtype=np.uint32),
                lambda g: g.standard_normal(7),
                lambda g: g.bit_generator.random_raw(3),
            ):
                assert draw(got).tobytes() == draw(want).tobytes(), stream_id


class TestSinc:
    def test_removable_singularity(self):
        assert sinc_normalized(0.0) == 1.0

    def test_half(self):
        assert sinc_normalized(0.5) == pytest.approx(2.0 / np.pi, rel=1e-14)

    def test_integer_zero(self):
        assert sinc_normalized(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_phase_average(self):
        # E[exp(j theta)], theta ~ U(-pi/2, pi/2), equals sinc(1/2); 1e6 samples, 1%
        gen = RngStream(7, 0).generator()
        theta = gen.uniform(-np.pi / 2, np.pi / 2, 10**6)
        mc = np.mean(np.exp(1j * theta))
        assert abs(mc - sinc_normalized(0.5)) / sinc_normalized(0.5) < 0.01


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def fsum_rows(terms):
    return np.array([math.fsum(row) for row in np.asarray(terms).tolist()])


class CountingMath:
    """The ``math`` module with a count of its ``fsum`` calls."""

    def __init__(self):
        self.fsums = 0

    def fsum(self, values):
        self.fsums += 1
        return math.fsum(values)

    def __getattr__(self, name):
        return getattr(math, name)


class TestFsums:
    """``numerics._fsums`` is ``math.fsum`` of each row, bit for bit.

    Each test runs the whole-array passes on blocks of any size, small
    ones included, which otherwise go to fsum row by row.
    """

    @pytest.fixture(autouse=True)
    def whole_array_passes(self, monkeypatch):
        monkeypatch.setattr(numerics, "_FSUMS_MIN_TERMS", 0)

    def test_random_rows(self):
        # 10**5 rows of widths 1 to 64, terms from subnormals up to 2**990
        # (over 600 decades), rows spread over up to 600 decades, zeros included
        rng = np.random.default_rng(2024)
        rows = 0
        while rows < 100_000:
            B, n = int(rng.integers(1, 400)), int(rng.integers(1, 65))
            scale = int(rng.integers(-1074, 991))  # the block's binary exponent
            spread = int(rng.choice([0, 4, 60, 2000]))
            exponents = np.maximum(scale - rng.integers(0, spread + 1, (B, n)), -1074)
            terms = np.ldexp(rng.random((B, n)), exponents)
            terms[rng.random((B, n)) < 0.1] = 0.0
            np.testing.assert_array_equal(bits(numerics._fsums(terms)), bits(fsum_rows(terms)))
            rows += B

    @pytest.mark.parametrize("n", [21, 65, 10_000])
    def test_wide_rows_rarely_fall_back(self, n, monkeypatch):
        # squares of normals over three decades: the whole-array passes
        # decide all but a few rows, and math.fsum sees almost none
        counting = CountingMath()
        monkeypatch.setattr(numerics, "math", counting)
        rng = np.random.default_rng(n)
        terms = rng.standard_normal((400, n)) ** 2 * 10.0 ** rng.uniform(-3.0, 0.0, (400, 1))
        np.testing.assert_array_equal(bits(numerics._fsums(terms)), bits(fsum_rows(terms)))
        assert counting.fsums <= 4

    def test_exact_ties_go_to_fsum(self, monkeypatch):
        # two terms of one binade sum to a rounding midpoint about half the
        # time; those rows cannot be decided within the bound and go to fsum
        counting = CountingMath()
        monkeypatch.setattr(numerics, "math", counting)
        terms = 1.0 + np.random.default_rng(3).random((400, 2))
        np.testing.assert_array_equal(bits(numerics._fsums(terms)), bits(fsum_rows(terms)))
        assert 100 < counting.fsums < 300

    @pytest.mark.parametrize(
        "row",
        [
            [1.0, 2.0**-53],  # a tie, to even: 1
            [1.0, 2.0**-53, 2.0**-150],  # just past the tie: up
            [1.0, 2.0**-53 - 2.0**-106],  # just short of it: down
            [1.0 + 2.0**-52, 2.0**-53],  # a tie, to even: up
            [1.0, 2.0**-54, 2.0**-54],  # the tie from two halves
            [1.0, 2.0**-54, 2.0**-54, 2.0**-1074],
            [2.0**53, 1.0],  # a tie between integers
            [2.0**53, 1.0, 2.0**-80],
            [2.0**-1022, 2.0**-1074, 2.0**-1074],  # subnormal steps, exact
            [5e-324, 5e-324, 5e-324],
            [0.0, 0.0],
        ],
    )
    def test_rows_at_rounding_midpoints(self, row):
        # alone, and padded with zeros among ordinary rows of its scale
        alone = np.array([row])
        assert bits(numerics._fsums(alone)) == bits(fsum_rows(alone))
        rng = np.random.default_rng(len(row))
        block = rng.random((50, 8)) * max(row)
        block[17] = np.pad(row, (0, 8 - len(row)))
        np.testing.assert_array_equal(bits(numerics._fsums(block)), bits(fsum_rows(block)))

    def test_built_midpoints_across_magnitudes(self):
        # x plus half its ulp is a tie; plus a quarter twice, the same tie
        # built from two terms; one more tiny term tips it up
        rng = np.random.default_rng(11)
        x = np.ldexp(1.0 + rng.random(2000), rng.integers(-1000, 1000, 2000))
        half, zero = np.spacing(x) / 2, np.zeros_like(x)
        for tail in ([half, zero, zero], [half / 2, half / 2, zero], [half, zero, half / 2**40]):
            terms = np.column_stack([x, *tail])
            np.testing.assert_array_equal(bits(numerics._fsums(terms)), bits(fsum_rows(terms)))

    @pytest.mark.parametrize(
        "row", [[math.inf, 1.0], [math.nan, 1.0], [math.inf, math.nan], [1.0, math.inf]]
    )
    def test_non_finite_rows_as_fsum(self, row):
        block = np.array([[1.0, 2.0], row, [3.0, 2.0**-60]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = numerics._fsums(block)
        np.testing.assert_array_equal(bits(got), bits(fsum_rows(block)))

    def test_overflow_raises_as_fsum(self):
        block = np.array([[1.0, 2.0], [1e308, 1e308]])
        with pytest.raises(OverflowError):
            math.fsum(block[1].tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                numerics._fsums(block)
            # near the top of the range but finite: fsum's value, no warning
            edge = np.array([[1e308, 7e307], [1.0, 1.0]])
            np.testing.assert_array_equal(bits(numerics._fsums(edge)), bits(fsum_rows(edge)))


def test_fsums_small_blocks_go_to_fsum(monkeypatch):
    # below the cutoff every row is one fsum call; at it, only the rows
    # that the whole-array passes cannot decide
    counting = CountingMath()
    monkeypatch.setattr(numerics, "math", counting)
    terms = np.random.default_rng(8).random((40, 21)) ** 2
    small = terms[: (numerics._FSUMS_MIN_TERMS - 1) // 21]
    np.testing.assert_array_equal(bits(numerics._fsums(small)), bits(fsum_rows(small)))
    assert counting.fsums == len(small)
    counting.fsums = 0
    np.testing.assert_array_equal(bits(numerics._fsums(terms)), bits(fsum_rows(terms)))
    assert counting.fsums <= 2
