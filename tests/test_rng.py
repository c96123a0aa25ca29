"""Stream keying, batched words, uniforms and Box-Muller normals."""

import hashlib
import math

import numpy as np
import pytest

from obf.rng import (
    Stream,
    derive64,
    mix64,
    normals,
    replicate_seed,
    stream_words,
    uniforms,
)
from oracles import splitmix64_ref

MASK64 = (1 << 64) - 1
SEEDS = (0, MASK64, -7)


def derive64_ref(seed: int, *ids: int) -> int:
    h = splitmix64_ref(seed & MASK64)
    for i in ids:
        h = splitmix64_ref(h ^ splitmix64_ref(i & MASK64))
    return h


class TestKeys:
    def test_mix64_matches_plain_int_oracle(self):
        rng = np.random.default_rng(3)
        z = np.concatenate([
            np.array([0, 1, 2**63, MASK64], dtype=np.uint64),
            rng.integers(0, 2**64, size=500, dtype=np.uint64, endpoint=False),
        ])
        got = mix64(z)
        assert got.dtype == np.uint64 and got.shape == z.shape
        assert got.tolist() == [splitmix64_ref(int(v)) for v in z]

    @pytest.mark.parametrize("seed", SEEDS + (2**70 + 5,))
    def test_derive64_scalar_and_array(self, seed):
        members = np.array([0, 1, 5, 12345], dtype=np.int64)
        got = derive64(seed, 2, members)
        assert got.tolist() == [derive64_ref(seed, 2, int(m)) for m in members]
        assert int(derive64(seed)[0]) == derive64_ref(seed)
        assert int(derive64(seed, -1, 3)[0]) == derive64_ref(seed, -1, 3)

    def test_replicate_seed_pinned(self):
        cases = {
            (0, 20, 0): 7003454662070574787,
            (0, 200, 1): 2616300068659223031,
            (7, 1100, 2): 10901019304285642808,
            (MASK64, 4, 0): 5519178073711788382,
            (-3, 650, 5): 10769395636374236363,
        }
        for args, want in cases.items():
            got = replicate_seed(*args)
            assert type(got) is int and got == want, args


class TestStreamWords:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", (1, 2))
    @pytest.mark.parametrize("words", (1, 2, 3, 5, 4 * 25 + 2))
    def test_rows_equal_per_stream_words(self, seed, family, words):
        members = [0, 1, 2, 7, 40]
        got = stream_words(seed, family, members, words)
        assert got.shape == (len(members), words) and got.dtype == np.uint64
        for row, m in zip(got, members):
            assert np.array_equal(row, Stream(seed, family, m).raw(words))

    def test_no_members(self):
        assert stream_words(1, 1, [], 4).shape == (0, 4)

    def test_pinned_words(self):
        assert Stream(0, 1, 0).raw(2).tolist() == [
            14404620734552121505, 14025800932284841665,
        ]
        assert stream_words(0, 1, [0], 2).tolist() == [Stream(0, 1, 0).raw(2).tolist()]


class TestUniforms:
    def test_range_and_endpoints(self):
        raw = np.array([0, (1 << 11) - 1, MASK64], dtype=np.uint64)
        u = uniforms(raw)
        assert u.tolist() == [2.0 ** -53, 2.0 ** -53, 1.0]
        many = Stream(5, 3).uniforms(10_000)
        assert np.all(many > 0.0) and np.all(many <= 1.0)

    def test_stream_is_a_view(self):
        words = Stream(11, 2, 4).raw(9)
        assert np.array_equal(Stream(11, 2, 4).uniforms(9), uniforms(words))


class TestNormals:
    def test_cos_first_interleave(self):
        u = np.array([0.25, 0.125, 0.5, 0.75, 1.0, 0.3])
        z = normals(u)
        for i in range(3):
            r = math.sqrt(-2.0 * math.log(u[2 * i]))
            theta = 2.0 * math.pi * u[2 * i + 1]
            cos_sin = (r * math.cos(theta), r * math.sin(theta))
            assert tuple(z[2 * i:2 * i + 2]) == pytest.approx(cos_sin, rel=1e-14)
        assert z[4] == 0.0 and z[5] == 0.0  # u = 1 gives radius 0

    def test_last_axis_rows_match_one_row(self):
        u = Stream(4, 1, 1).uniforms(60).reshape(3, 20)
        z = normals(u)
        for row_u, row_z in zip(u, z):
            assert np.array_equal(normals(row_u), row_z)
        strided = np.concatenate([u, u[:, :1]], axis=1)[:, :20]
        assert np.array_equal(normals(strided), z)

    @pytest.mark.parametrize("count", (1, 2, 7, 10))
    def test_stream_is_a_view(self, count):
        words = Stream(8, 1, 3).raw(2 * ((count + 1) // 2))
        assert np.array_equal(
            Stream(8, 1, 3).normals(count), normals(uniforms(words))[:count]
        )


class TestPermutation:
    def test_is_a_permutation_and_pinned(self):
        perm = Stream(2024, 0).permutation(10)
        assert perm.tolist() == [5, 0, 2, 1, 3, 4, 6, 7, 9, 8]
        assert sorted(Stream(1, 0).permutation(500).tolist()) == list(range(500))

    @pytest.mark.parametrize("seed, digest", [
        (1, "2697ef8416df2b57cbe77d9eeda1c151392f3d7d1117019a5a47d71de654a0a9"),
        (2024, "d63773a60c49802e13f7209ec02e9eac643e03764099b945bbfd215715c11b36"),
    ])
    def test_full_size_pinned(self, seed, digest):
        perm = Stream(seed, 0).permutation(20000)
        assert hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("rejected", [(), (0,), (3, 1500), (2998,)])
    @pytest.mark.parametrize("drawn_before", [0, 1])
    def test_rejected_words_continue_as_the_loop(self, rejected, drawn_before):
        """A word integer_below rejects (2**64 - 1 is one at any bound but a
        power of two) sends the batched shuffle to the loop at that word;
        the result and the words left are the loop's."""
        words = Stream(5, 0).raw(6 * 1024)
        words[list(rejected)] = MASK64
        batched, looped = fed(words), fed(words)
        for stream in (batched, looped):
            for _ in range(drawn_before):
                stream.integer_below(9)
        assert batched.permutation(3000).tolist() == loop_permutation(looped, 3000)
        assert ([batched.integer_below(7) for _ in range(2000)]
                == [looped.integer_below(7) for _ in range(2000)])
        assert batched.raw(3).tolist() == looped.raw(3).tolist()

    def test_integer_below(self):
        s = Stream(3, 9)
        draws = [s.integer_below(3) for _ in range(300)]
        assert set(draws) == {0, 1, 2}
        with pytest.raises(ValueError):
            s.integer_below(0)


def fed(words):
    """A stream whose raw words are `words`, in order."""
    stream = Stream(0, 0)
    source = iter(words.tolist())
    stream.raw = lambda count: np.array([next(source) for _ in range(count)],
                                        dtype=np.uint64)
    return stream


def loop_permutation(stream, n):
    """Fisher-Yates by one integer_below call per position."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.integer_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm
