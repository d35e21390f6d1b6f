import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_aircomp import numerics
from irs_aircomp.numerics import RngStream, array_response, as_generator, sinc_normalized


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

    @pytest.mark.parametrize("angle", [0.3, -1.2, 0.0, -0.0, np.pi / 2])
    @pytest.mark.parametrize("spacing", [0.5, 2.3])
    def test_block_of_exponentials_then_within_bound(self, angle, spacing):
        # the first block is the complex chain bit for bit; beyond it, the
        # steering kernel's bound (tests/test_channel.py states its derivation)
        n = 8192
        want = np.exp(2j * np.pi * spacing * np.sin(angle) * np.arange(n))
        got = array_response(n, angle, spacing)
        block = numerics._STEERING_BLOCK
        np.testing.assert_array_equal(got[:block].view(np.uint64), want[:block].view(np.uint64))
        slope = abs(2.0 * np.pi * spacing * np.sin(angle))
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - want) <= eps * (slope * np.arange(n) + 8.0))

    @pytest.mark.parametrize("angle", [0.3, -1.2, -0.0, 1e-300])
    def test_prefix_of_largest_array_bit_for_bit(self, angle):
        whole = array_response(8192, angle, 0.37)
        block = numerics._STEERING_BLOCK
        for n in (1, 10, block - 1, block, block + 1, 1000, 8191):
            np.testing.assert_array_equal(
                array_response(n, angle, 0.37).view(np.uint64), whole[:n].view(np.uint64)
            )

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
