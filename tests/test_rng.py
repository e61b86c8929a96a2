"""Counter-based SplitMix64 stream and the tagged seed-derivation hash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritrunc import rng
from tritrunc.rng import SplitMix64, derive_seed

from oracles import derive_seed_reference, splitmix64_reference, uniform53_reference


# --- raw stream -----------------------------------------------------------------


def test_known_answer_vector():
    # first output of the standard SplitMix64 sequence for seed 0
    assert splitmix64_reference(0, 1)[0] == 0xE220A8397B1DCDAF
    got = SplitMix64(0).uniform(1)[0]
    assert got == ((0xE220A8397B1DCDAF >> 11) + 1) * 2.0**-53


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), count=st.integers(1, 16))
def test_uniform_matches_the_reference_stream(seed, count):
    got = SplitMix64(seed).uniform(count)
    assert got.tolist() == uniform53_reference(seed, count)


def test_uniforms_live_in_the_half_open_unit_interval():
    u = SplitMix64(123).uniform(4096)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


def test_stream_is_counter_based():
    # splitting one request into two consumes exactly the same indices
    g1, g2 = SplitMix64(99), SplitMix64(99)
    split = np.concatenate([g1.uniform(3), g1.uniform(2)])
    assert np.array_equal(split, g2.uniform(5))


def test_a_draw_across_evaluation_blocks_is_the_reference_stream():
    # a draw is evaluated block by block; one that starts mid-stream and crosses two
    # block boundaries is still the plain stream, and leaves the counter after its end
    seed = 0xDEADBEEFCAFEBABE
    gen = SplitMix64(seed)
    gen.uniform(5)
    count = 2 * rng._BLOCK + 7
    assert gen._raw(count).tolist() == splitmix64_reference(seed, count, start=6)
    assert gen._raw(1).tolist() == splitmix64_reference(seed, 1, start=6 + count)


# --- derived distributions -------------------------------------------------------


def test_normal_is_deterministic_and_roughly_standard():
    a = SplitMix64(7).normal(20000)
    b = SplitMix64(7).normal(20000)
    assert np.array_equal(a, b)
    assert abs(np.mean(a)) < 0.05
    assert abs(np.std(a) - 1.0) < 0.05


def test_normal_handles_odd_counts():
    assert SplitMix64(7).normal(5).shape == (5,)


@pytest.mark.parametrize("count", [1, 2, 7, 64])
def test_normal_is_box_muller_on_two_uniform_blocks(count):
    # radii from the first (count + 1) // 2 uniforms, angles from the next; cosines, then sines
    half = (count + 1) // 2
    u = SplitMix64(3).uniform(2 * half)
    r, theta = np.sqrt(-2.0 * np.log(u[:half])), 2.0 * np.pi * u[half:]
    want = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count]
    assert SplitMix64(3).normal(count).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("size", [1, 2, 5, 97])
def test_complex_normal_is_two_normal_calls(seed, size):
    # the real parts take one normal(size) call's words, the imaginary parts the next call's
    z, twin = SplitMix64(seed).complex_normal(size), SplitMix64(seed)
    assert np.array_equal(z.real, twin.normal(size)) and np.array_equal(z.imag, twin.normal(size))


def test_complex_normal_shapes_and_dtype():
    g = SplitMix64(11)
    z = g.complex_normal((3, 4))
    assert z.shape == (3, 4) and np.iscomplexobj(z)
    assert g.complex_normal(6).shape == (6,)
    assert g.complex_matrix(2, 5).shape == (2, 5)


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
@pytest.mark.parametrize("size", [1, 2, 3, 13, 97])
def test_complex_normal_rows_are_consecutive_complex_normal_calls(seed, size):
    bulk, one_by_one = SplitMix64(seed), SplitMix64(seed)
    bulk.uniform(3), one_by_one.uniform(3)  # start off the stream's origin
    rows = bulk.complex_normal_rows(7, size)
    want = np.stack([one_by_one.complex_normal(size) for _ in range(7)])
    assert rows.shape == (7, size) and rows.dtype == want.dtype
    assert rows.tobytes() == want.tobytes()
    # the counter lands where the consecutive calls leave it
    assert bulk.uniform(5).tobytes() == one_by_one.uniform(5).tobytes()
    assert bulk.complex_normal_rows(0, size).shape == (0, size)


def test_integers_follow_the_modular_map():
    seed, upper = 42, 37
    got = SplitMix64(seed).integers(50, upper)
    want = [x % upper for x in splitmix64_reference(seed, 50)]
    assert got.tolist() == want
    assert got.min() >= 0 and got.max() < upper


# --- integer arguments ------------------------------------------------------------

# entry point -> (its draw from stream g with the integer argument n, a value below n's floor or None)
INTEGER_ARGUMENTS = {
    "SplitMix64 seed": (lambda g, n: SplitMix64(n).uniform(4), None),
    "uniform count": (lambda g, n: g.uniform(n), -3),
    "normal count": (lambda g, n: g.normal(n), -1),
    "complex_normal size": (lambda g, n: g.complex_normal(n), -1),
    "complex_normal shape": (lambda g, n: g.complex_normal((2, n)), -1),
    "complex_normal_rows count": (lambda g, n: g.complex_normal_rows(n, 2), -1),
    "complex_normal_rows size": (lambda g, n: g.complex_normal_rows(2, n), -1),
    "complex_matrix rows": (lambda g, n: g.complex_matrix(n, 2), -1),
    "complex_matrix cols": (lambda g, n: g.complex_matrix(2, n), -1),
    "integers count": (lambda g, n: g.integers(n, 7), -1),
    "integers upper": (lambda g, n: g.integers(3, n), 0),
}


@pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
def test_integer_arguments_go_through_the_validator(name):
    # no truncation of a fraction, no bool, no string, nothing below the floor, and a
    # rejected call draws nothing: the stream goes on as a fresh one would
    draw, below = INTEGER_ARGUMENTS[name]
    for bad in (2.9, True, "3") + ((below,) if below is not None else ()):
        gen = SplitMix64(5)
        with pytest.raises(ValueError, match=r"must be (an integer|>=)"):
            draw(gen, bad)
        assert gen.uniform(3).tobytes() == SplitMix64(5).uniform(3).tobytes()
    # numpy integers are integers, with bit-identical output
    got, want = draw(SplitMix64(5), np.int64(3)), draw(SplitMix64(5), 3)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_seeds_wrap_modulo_2_64():
    for seed, wrapped in ((-1, 2**64 - 1), (2**64 + 5, 5), (-(2**64), 0)):
        assert SplitMix64(seed).uniform(8).tobytes() == SplitMix64(wrapped).uniform(8).tobytes()


# --- seed derivation --------------------------------------------------------------


def test_derive_seed_empty_is_the_offset_basis():
    assert derive_seed() == 0xCBF29CE484222325


@settings(max_examples=80, deadline=None)
@given(
    parts=st.lists(
        st.one_of(
            st.text(max_size=8),
            st.integers(min_value=-(2**31), max_value=2**31),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=5,
    )
)
def test_derive_seed_matches_the_reference(parts):
    assert derive_seed(*parts) == derive_seed_reference(*parts)


def test_derive_seed_distinguishes_types_and_order():
    assert derive_seed("1") != derive_seed(1)
    assert derive_seed(1) != derive_seed(1.0)
    assert derive_seed("a", "b") != derive_seed("b", "a")
    # concatenation attacks are blocked by the per-part separator
    assert derive_seed("ab") != derive_seed("a", "b")


def test_derive_seed_rejects_unsupported_types():
    with pytest.raises(TypeError):
        derive_seed([1, 2])
    with pytest.raises(TypeError, match="cannot derive a seed from bool"):
        derive_seed(True)


def test_derive_seed_rejects_integers_outside_64_bits():
    assert derive_seed(2**63 - 1) == derive_seed_reference(2**63 - 1)
    assert derive_seed(-(2**63)) == derive_seed_reference(-(2**63))
    for part in (2**63, -(2**63) - 1, 2**64):
        with pytest.raises(ValueError, match="outside the 64-bit range"):
            derive_seed("x", part)


def test_derive_seed_feeds_distinct_streams():
    a = SplitMix64(derive_seed("stream", 0)).uniform(4)
    b = SplitMix64(derive_seed("stream", 1)).uniform(4)
    assert not np.array_equal(a, b)
