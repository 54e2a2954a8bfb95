"""Property tests: stacked 2D stripe kernels == the scalar oracle.

The batch kernels (``encode_stripes``/``decode_stripes``/
``RSCodec.encode_batch``/``RSCodec.recover_stripes``) must be
*bit-exact* with the record-at-a-time paths they replace, across random
field widths, group shapes, erasure patterns and ragged payload lengths.
The scalar implementations stay in the tree as the oracle; these tests
are the contract that keeps the two in lockstep.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF
from repro.gf.signatures import signature_matrix, signature_vector
from repro.rs import RSCodec, decode_stripes, encode_stripes, encode_symbols

#: the widths with a byte payload form (GF(2^4) is arithmetic only)
WIDTHS = [8, 16]


def group_strategy(max_m=5, max_payload=40):
    """(width, m, k, payload list) with ragged lengths and empty slots."""
    return st.tuples(
        st.sampled_from(WIDTHS),
        st.integers(min_value=1, max_value=max_m),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )


def draw_payloads(data, m, max_payload=40):
    return data.draw(
        st.lists(
            st.one_of(st.none(), st.binary(max_size=max_payload)),
            min_size=1,
            max_size=m,
        )
    )


class TestEncodeStripes:
    @given(args=group_strategy())
    @settings(max_examples=60, deadline=None)
    def test_matches_encode_symbols_per_group(self, args):
        width, m, k, data = args
        field = GF(width)
        codec = RSCodec(m, k, field)
        ngroups = data.draw(st.integers(min_value=1, max_value=4))
        groups = [draw_payloads(data, m) for _ in range(ngroups)]

        batched = codec.encode_batch(groups)
        for group, parity in zip(groups, batched):
            assert parity == codec.encode(group)

    @given(args=group_strategy())
    @settings(max_examples=40, deadline=None)
    def test_encode_stripes_tensor_matches_oracle(self, args):
        width, m, k, data = args
        field = GF(width)
        if k == 0:
            k = 1
        codec = RSCodec(m, k, field)
        ngroups = data.draw(st.integers(min_value=1, max_value=3))
        groups = [draw_payloads(data, m) for _ in range(ngroups)]
        length = max(
            (codec.stripe_symbol_length(g) for g in groups), default=0
        )

        stacked = codec.pack_stripes(groups, length)
        parity = encode_stripes(field, codec.parity, stacked)
        assert parity.shape == (k, ngroups, length)
        for r, group in enumerate(groups):
            oracle = encode_symbols(field, codec.parity, group, length)
            for i in range(k):
                assert (parity[i, r] == oracle[i]).all()


class TestDecodeStripes:
    @given(args=group_strategy(max_m=4, max_payload=24))
    @settings(max_examples=40, deadline=None)
    def test_recover_stripes_matches_scalar_recover(self, args):
        width, m, k, data = args
        if k == 0:
            k = 1
        field = GF(width)
        codec = RSCodec(m, k, field)
        ngroups = data.draw(st.integers(min_value=1, max_value=3))
        groups = [
            data.draw(
                st.lists(
                    st.binary(min_size=1, max_size=24),
                    min_size=m, max_size=m,
                )
            )
            for _ in range(ngroups)
        ]
        nlost = data.draw(st.integers(min_value=1, max_value=k))
        lost = sorted(
            data.draw(
                st.permutations(list(range(m + k)))
            )[:nlost]
        )

        # Build each group's full codeword, then erase `lost`.
        length = max(codec.stripe_symbol_length(g) for g in groups)
        full = []
        for group in groups:
            parity = codec.encode(group)
            full.append(list(group) + parity)
        survivors = [p for p in range(m + k) if p not in lost]

        stacked = {
            p: field.stack_payloads([cw[p] for cw in full], length)
            for p in survivors
        }
        batched = codec.recover_stripes(stacked, lost)

        for r, codeword in enumerate(full):
            shares = {p: codeword[p] for p in survivors}
            oracle = codec.recover(shares, lost)
            for p in lost:
                want = field.symbols_from_bytes(oracle[p], length)
                assert (batched[p][r] == want).all()

    def test_all_small_erasure_patterns_bit_exact(self):
        """Exhaustive ≤k erasure sweep at a few fixed shapes."""
        for width, (m, k) in itertools.product([8, 16], [(4, 2), (3, 3), (1, 1)]):
            field = GF(width)
            codec = RSCodec(m, k, field)
            groups = [
                [bytes([(i * 7 + j + g) % 256 for j in range(11 + i)])
                 for i in range(m)]
                for g in range(3)
            ]
            length = max(codec.stripe_symbol_length(g) for g in groups)
            full = [list(g) + codec.encode(g) for g in groups]
            for nlost in range(1, k + 1):
                for lost in itertools.combinations(range(m + k), nlost):
                    survivors = [p for p in range(m + k) if p not in lost]
                    stacked = {
                        p: field.stack_payloads([cw[p] for cw in full], length)
                        for p in survivors
                    }
                    batched = codec.recover_stripes(stacked, list(lost))
                    for r, codeword in enumerate(full):
                        oracle = codec.recover(
                            {p: codeword[p] for p in survivors}, list(lost)
                        )
                        for p in lost:
                            want = field.symbols_from_bytes(oracle[p], length)
                            assert (batched[p][r] == want).all()

    def test_xor_fast_path_single_data_loss(self):
        """Losing one data record with parity 0 alive rides plain XOR."""
        field = GF(8)
        codec = RSCodec(4, 1, field)
        groups = [[bytes([g * 16 + i] * 8) for i in range(4)] for g in range(5)]
        full = [list(g) + codec.encode(g) for g in groups]
        length = codec.stripe_symbol_length(groups[0])
        stacked = {
            p: field.stack_payloads([cw[p] for cw in full], length)
            for p in range(5) if p != 2
        }
        out = decode_stripes(field, 4, 1, stacked, [2])
        for r, cw in enumerate(full):
            assert field.bytes_from_symbols(out[2][r], 8) == cw[2]

    @pytest.mark.parametrize("width", [8, 16])
    def test_vandermonde_single_data_loss_takes_the_inverse(self, width):
        """The Vandermonde parity row 0 is not all ones, so the XOR
        fast path would decode garbage: both decoders take the inverse."""
        from repro.rs import decode_symbols

        field = GF(width)
        codec = RSCodec(4, 2, field, "vandermonde")
        groups = [[bytes([g * 16 + i] * 8) for i in range(4)] for g in range(3)]
        full = [list(g) + codec.encode(g) for g in groups]
        length = codec.stripe_symbol_length(groups[0])
        stacked = {
            p: field.stack_payloads([cw[p] for cw in full], length)
            for p in range(6) if p != 2
        }
        out = decode_stripes(field, 4, 2, stacked, [2], "vandermonde")
        for r, cw in enumerate(full):
            assert field.bytes_from_symbols(out[2][r], 8) == cw[2]
            scalar = decode_symbols(field, 4, 2, {
                p: field.symbols_from_bytes(cw[p], length)
                for p in range(6) if p != 2
            }, [2], "vandermonde")
            assert field.bytes_from_symbols(scalar[2], 8) == cw[2]


class TestSignatureMatrix:
    @given(
        width=st.sampled_from([8, 16]),
        rows=st.lists(st.binary(max_size=24), min_size=1, max_size=5),
        count=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_signature_vector_per_row(self, width, rows, count):
        field = GF(width)
        length = max(
            (field.symbol_length_for_bytes(len(r)) for r in rows), default=0
        )
        matrix = field.stack_payloads(rows, length)
        batched = signature_matrix(field, matrix, count)
        for row, payload in zip(batched, rows):
            # Padding to the common width must not change the signature.
            assert row == signature_vector(field, payload, count, length=length)
            assert row == signature_vector(field, payload, count)


class TestWideFieldStripes:
    """GF(2^16)-specific batch≡scalar coverage.

    The wide field has no cached mul rows — every kernel rides the
    zero-safe single-gather layout — and its 2-byte symbols make odd
    byte lengths the ragged case (a trailing zero pad byte).  These
    tests pin both hazards through the full encode/recover pipeline.
    """

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_encode_ragged_odd_lengths_matches_oracle(self, data):
        field = GF(16)
        m = data.draw(st.integers(min_value=1, max_value=4))
        k = data.draw(st.integers(min_value=1, max_value=3))
        codec = RSCodec(m, k, field)
        # Odd byte lengths force the 2-byte-symbol pad path; mix them
        # with even and empty slots so stripes are genuinely ragged.
        def slot():
            odd = 2 * data.draw(st.integers(min_value=0, max_value=10)) + 1
            n = data.draw(st.sampled_from([0, odd, odd + 1]))
            return data.draw(st.binary(min_size=n, max_size=n))

        groups = [
            [slot() for _ in range(m)]
            for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
        ]
        batched = codec.encode_batch(groups)
        for group, parity in zip(groups, batched):
            assert parity == codec.encode(group)

    def test_all_zero_column_contributes_nothing_gf16(self):
        """A group position holding only zero bytes (or nothing) leaves
        the parity equal to the encoding without it."""
        field = GF(16)
        codec = RSCodec(4, 2, field)
        payloads = [b"alpha-record!", b"\x00" * 13, None, b"delta-record."]
        sparse = [payloads[0], None, None, payloads[3]]
        assert codec.encode(payloads) == codec.encode(sparse)

        length = codec.stripe_symbol_length(payloads)
        stacked = codec.pack_stripes([payloads, sparse], length)
        parity = encode_stripes(field, codec.parity, stacked)
        assert (parity[:, 0, :] == parity[:, 1, :]).all()

    def test_recover_with_all_zero_surviving_column_gf16(self):
        """Decode must stay exact when a survivor's stripe is all zeros
        — the case the log-table sentinel exists for."""
        field = GF(16)
        codec = RSCodec(3, 2, field)
        groups = [
            [b"one-one-one", b"\x00" * 11, b"three3three"],
            [b"\x00" * 7, b"\x00" * 7, b"\x00" * 7],
        ]
        length = max(codec.stripe_symbol_length(g) for g in groups)
        full = [list(g) + codec.encode(g) for g in groups]
        for lost in ([0, 2], [1, 3], [2, 4]):
            survivors = [p for p in range(5) if p not in lost]
            stacked = {
                p: field.stack_payloads([cw[p] for cw in full], length)
                for p in survivors
            }
            batched = codec.recover_stripes(stacked, lost)
            for r, codeword in enumerate(full):
                oracle = codec.recover(
                    {p: codeword[p] for p in survivors}, lost
                )
                for p in lost:
                    want = field.symbols_from_bytes(oracle[p], length)
                    assert (batched[p][r] == want).all()
                    # And the oracle itself round-trips the data.
                    if p < 3:
                        assert oracle[p][: len(codeword[p])] == codeword[p]


class TestValidation:
    def test_encode_stripes_rejects_wrong_rank(self):
        field = GF(8)
        codec = RSCodec(2, 1, field)
        with pytest.raises(ValueError):
            encode_stripes(field, codec.parity, np.zeros((2, 3), dtype=np.uint8))

    def test_encode_stripes_rejects_too_many_positions(self):
        field = GF(8)
        codec = RSCodec(2, 1, field)
        with pytest.raises(ValueError):
            encode_stripes(
                field, codec.parity, np.zeros((3, 1, 4), dtype=np.uint8)
            )

    def test_decode_stripes_rejects_ragged_shares(self):
        field = GF(8)
        with pytest.raises(ValueError):
            decode_stripes(
                field, 2, 1,
                {
                    0: np.zeros((2, 4), dtype=np.uint8),
                    1: np.zeros((2, 5), dtype=np.uint8),
                },
                [2],
            )
