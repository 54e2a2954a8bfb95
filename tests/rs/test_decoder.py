"""Focused tests of decoder internals and unusual configurations."""

import numpy as np
import pytest

from repro.gf import GF
from repro.rs import DecodeError, RSCodec, decode_symbols
from repro.rs.decoder import select_rows
from repro.rs.generator import parity_matrix


class TestSelectRows:
    def test_prefers_data_rows(self):
        assert select_rows({0, 1, 4, 5}, 4) == (0, 1, 4, 5)
        assert select_rows({0, 1, 2, 3, 4}, 4) == (0, 1, 2, 3)
        assert select_rows({1, 3, 4, 6}, 4) == (1, 3, 4, 6)

    def test_insufficient(self):
        with pytest.raises(DecodeError, match="survive"):
            select_rows({0, 4}, 4)


class TestDecodeSymbols:
    def setup_method(self):
        self.field = GF(8)
        self.m, self.k = 3, 2
        rng = np.random.default_rng(5)
        self.data = [rng.integers(0, 256, 16, dtype=np.uint8)
                     for _ in range(self.m)]
        p = parity_matrix(self.field, self.m, self.k)
        self.shares = {j: d.copy() for j, d in enumerate(self.data)}
        for i in range(self.k):
            acc = np.zeros(16, dtype=np.uint8)
            for j in range(self.m):
                acc ^= self.field.mul_symbols(self.data[j], p[i, j])
            self.shares[self.m + i] = acc

    def test_decode_from_parity_only_plus_one(self):
        survivors = {0: self.shares[0], 3: self.shares[3], 4: self.shares[4]}
        out = decode_symbols(self.field, self.m, self.k, survivors, [1, 2])
        assert (out[1] == self.data[1]).all()
        assert (out[2] == self.data[2]).all()

    def test_decode_nothing_lost(self):
        assert decode_symbols(self.field, self.m, self.k, self.shares, []) == {}

    def test_position_out_of_range(self):
        bad = dict(self.shares)
        bad[9] = self.shares[0]
        with pytest.raises(ValueError, match="out of range"):
            decode_symbols(self.field, self.m, self.k, bad)

    def test_overlapping_lost_and_available(self):
        with pytest.raises(ValueError, match="both lost and available"):
            decode_symbols(self.field, self.m, self.k, self.shares, [0])

    def test_mismatched_lengths_rejected(self):
        bad = {p: v.copy() for p, v in self.shares.items()}
        bad[0] = bad[0][:8]
        del bad[1]
        with pytest.raises(ValueError, match="same symbol length"):
            decode_symbols(self.field, self.m, self.k, bad, [1])

    def test_lost_parity_only_reencodes(self):
        survivors = {j: self.shares[j] for j in range(self.m)}
        out = decode_symbols(self.field, self.m, self.k, survivors, [3, 4])
        assert (out[3] == self.shares[3]).all()
        assert (out[4] == self.shares[4]).all()

    def test_lost_parity_with_missing_data(self):
        survivors = {0: self.shares[0], 1: self.shares[1], 4: self.shares[4]}
        out = decode_symbols(self.field, self.m, self.k, survivors, [3])
        assert (out[3] == self.shares[3]).all()


class TestUnusualConfigurations:
    def test_ragged_codec_roundtrip(self):
        """Ragged payloads: two lost records come back at their lengths."""
        codec = RSCodec(m=3, k=2, field=GF(8))
        payloads = [b"ragged-length!", b"odd", b"payloads here"]
        parity = codec.encode(payloads)
        shares = {j: p for j, p in enumerate(payloads)}
        shares.update({3 + i: p for i, p in enumerate(parity)})
        survivors = {p: v for p, v in shares.items() if p not in (0, 2)}
        out = codec.recover(
            survivors, [0, 2],
            payload_lengths={0: len(payloads[0]), 2: len(payloads[2])},
        )
        assert out[0] == payloads[0]
        assert out[2] == payloads[2]

    def test_m1_groups(self):
        """m=1: every record alone in its group; parity is a copy."""
        codec = RSCodec(m=1, k=2)
        parity = codec.encode([b"solo"])
        assert parity == [b"solo", b"solo"]
        out = codec.recover({1: b"solo"}, [0])
        assert out[0] == b"solo"

    def test_wide_group_gf8(self):
        codec = RSCodec(m=12, k=4)
        payloads = [bytes([i]) * 8 for i in range(12)]
        shares = {j: p for j, p in enumerate(payloads)}
        shares.update({12 + i: p for i, p in enumerate(codec.encode(payloads))})
        lost = [0, 5, 11, 13]
        survivors = {p: v for p, v in shares.items() if p not in lost}
        out = codec.recover(survivors, lost)
        for pos in lost:
            assert out[pos] == shares[pos]

    def test_decode_matrix_cache_shared(self):
        from repro.rs import decoder

        decoder._decode_matrix.cache_clear()
        codec = RSCodec(m=4, k=2)
        payloads = [b"abcd"] * 4
        shares = {j: p for j, p in enumerate(payloads)}
        shares.update({4 + i: p for i, p in enumerate(codec.encode(payloads))})
        survivors = {p: v for p, v in shares.items() if p not in (1, 2)}
        codec.recover(survivors, [1, 2])
        misses_first = decoder._decode_matrix.cache_info().misses
        codec.recover(survivors, [1, 2])  # same failure pattern
        assert decoder._decode_matrix.cache_info().misses == misses_first


class TestByteKernel:
    """``RSCodec.recover`` at w = 8 decodes on the bytes
    (``decode_bytes``): it must equal the ``decode_symbols`` oracle for
    every loss pattern of at most k positions, data and parity."""

    #: ragged lengths, empty members included; cycled to the group size
    LENGTHS = [0, 1, 17, 5, 0, 33, 2, 9]

    @pytest.mark.parametrize("kind", ["cauchy", "vandermonde"])
    @pytest.mark.parametrize("m", [4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_loss_pattern_matches_the_symbol_oracle(self, kind, m, k):
        from itertools import combinations

        field = GF(8)
        codec = RSCodec(m, k, field, kind)
        rng = np.random.default_rng(m * 10 + k)
        payloads = [rng.bytes(self.LENGTHS[j]) for j in range(m)]
        shares = dict(enumerate(payloads))
        shares.update(
            (m + i, parity) for i, parity in enumerate(codec.encode(payloads))
        )
        for size in range(1, k + 1):
            for lost in map(list, combinations(range(m + k), size)):
                survivors = {p: v for p, v in shares.items() if p not in lost}
                length = max(map(len, survivors.values()))
                oracle = decode_symbols(field, m, k, {
                    p: field.symbols_from_bytes(v, length)
                    for p, v in survivors.items()
                }, lost, kind)
                out = codec.recover(survivors, lost)
                assert out == {
                    p: field.bytes_from_symbols(symbols)
                    for p, symbols in oracle.items()
                }, lost
                trimmed = codec.recover(survivors, lost, payload_lengths={
                    p: len(shares[p]) for p in lost
                })
                assert trimmed == {p: shares[p] for p in lost}, lost

    def test_all_shares_empty(self):
        codec = RSCodec(4, 2)
        shares = {0: b"", 2: b"", 3: b"", 4: b"", 5: b""}
        assert codec.recover(shares, [1]) == {1: b""}
        assert codec.recover(shares) == {1: b""}

    def test_a_parity_loss_with_an_unlisted_missing_member(self):
        """A lost parity position is re-encoded from all m data
        positions, so one that is neither a share nor asked for is
        solved on the way."""
        codec = RSCodec(4, 2)
        payloads = [b"abc", b"de", b"", b"fghij"]
        parity = codec.encode(payloads)
        shares = {0: payloads[0], 1: payloads[1], 2: payloads[2],
                  4: parity[0]}
        assert codec.recover(shares, [5]) == {5: parity[1]}
