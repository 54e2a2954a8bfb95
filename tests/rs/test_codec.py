"""Unit and property tests for the (m+k, m) RS codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF
from repro.rs import DecodeError, RSCodec
from repro.rs.encoder import delta_payload


def make_group(codec, payloads):
    """Full share map {position: payload} for a data payload list."""
    parity = codec.encode(payloads)
    shares = {j: p for j, p in enumerate(payloads) if p}
    shares.update({codec.m + i: p for i, p in enumerate(parity)})
    return shares


class TestEncode:
    def test_single_parity_is_xor(self):
        codec = RSCodec(m=4, k=1)
        payloads = [b"abcd", b"efgh", b"ijkl", b"mnop"]
        (parity,) = codec.encode(payloads)
        expected = bytes(a ^ b ^ c ^ d for a, b, c, d in zip(*payloads))
        assert parity == expected

    def test_first_parity_is_xor_even_with_k3(self):
        codec = RSCodec(m=3, k=3)
        payloads = [b"xy", b"zw", b"uv"]
        parity = codec.encode(payloads)
        expected = bytes(a ^ b ^ c for a, b, c in zip(*payloads))
        assert parity[0] == expected

    def test_lone_record_copied_to_all_parities(self):
        """All-ones first column: a single record at position 0 appears
        verbatim in every parity payload."""
        codec = RSCodec(m=4, k=3)
        parity = codec.encode([b"hello world"])
        assert all(p == b"hello world" for p in parity)

    def test_empty_slots_ignored(self):
        codec = RSCodec(m=4, k=2)
        sparse = codec.encode([b"aa", None, b"bb", None])
        dense = codec.encode([b"aa", b"", b"bb", b""])
        assert sparse == dense

    def test_variable_lengths_padded(self):
        codec = RSCodec(m=2, k=1)
        (parity,) = codec.encode([b"abcdef", b"x"])
        assert len(parity) == 6
        assert parity[0] == ord("a") ^ ord("x")
        assert parity[1:] == b"bcdef"

    def test_k0_produces_nothing(self):
        assert RSCodec(m=4, k=0).encode([b"a"] * 4) == []

    def test_too_many_payloads_rejected(self):
        with pytest.raises(ValueError):
            RSCodec(m=2, k=1).encode([b"a", b"b", b"c"])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RSCodec(m=0, k=1)
        with pytest.raises(ValueError):
            RSCodec(m=2, k=-1)


class TestRecover:
    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("lost", [[0], [3], [1, 2], [0, 4], [4, 5], [0, 1]])
    def test_recover_patterns_m4_k2(self, width, lost):
        codec = RSCodec(m=4, k=2, field=GF(width))
        payloads = [b"alpha!", b"bravo!", b"charly", b"delta!"]
        shares = make_group(codec, payloads)
        survivors = {p: v for p, v in shares.items() if p not in lost}
        recovered = codec.recover(survivors, lost)
        for pos in lost:
            assert recovered[pos] == shares[pos]

    def test_insufficient_survivors(self):
        codec = RSCodec(m=3, k=1)
        shares = make_group(codec, [b"aa", b"bb", b"cc"])
        survivors = {0: shares[0], 1: shares[1]}  # only 2 of required 3
        with pytest.raises(DecodeError):
            codec.recover(survivors, [2, 3])

    def test_no_survivors(self):
        with pytest.raises(DecodeError):
            RSCodec(m=2, k=1).recover({}, [0])

    def test_overlapping_lost_and_available_rejected(self):
        codec = RSCodec(m=2, k=1)
        shares = make_group(codec, [b"aa", b"bb"])
        with pytest.raises(ValueError):
            codec.recover(shares, [0])

    def test_payload_lengths_strip_padding(self):
        codec = RSCodec(m=2, k=1)
        payloads = [b"abcdef", b"x"]
        shares = make_group(codec, payloads)
        del shares[1]
        out = codec.recover(shares, [1], payload_lengths={1: 1})
        assert out[1] == b"x"

    def test_recover_defaults_to_all_missing(self):
        codec = RSCodec(m=2, k=2)
        payloads = [b"aa", b"bb"]
        shares = make_group(codec, payloads)
        survivors = {0: shares[0], 2: shares[2]}
        out = codec.recover(survivors)
        assert out[1] == b"bb"
        assert out[3] == shares[3]

    def test_xor_fast_path_matches_general_decode(self):
        codec = RSCodec(m=4, k=2)
        payloads = [b"p0p0", b"p1p1", b"p2p2", b"p3p3"]
        shares = make_group(codec, payloads)
        # Fast path: one data loss, parity 0 (position m) present.
        fast = dict(shares)
        del fast[2]
        assert codec.recover(fast, [2])[2] == b"p2p2"
        # General path: same loss but parity 0 also gone.
        general = dict(shares)
        del general[2], general[4]
        assert codec.recover(general, [2])[2] == b"p2p2"


class TestDelta:
    def test_delta_of_insert_is_payload(self):
        assert RSCodec.delta(b"", b"new") == b"new"

    def test_delta_of_delete_is_payload(self):
        assert RSCodec.delta(b"old", b"") == b"old"

    @given(a=st.binary(max_size=32), b=st.binary(max_size=32))
    def test_delta_payload_is_padded_xor(self, a, b):
        out = delta_payload(a, b)
        assert len(out) == max(len(a), len(b))
        for i, byte in enumerate(out):
            av = a[i] if i < len(a) else 0
            bv = b[i] if i < len(b) else 0
            assert byte == av ^ bv

    @given(a=st.binary(max_size=32), b=st.binary(max_size=32))
    def test_delta_payload_self_inverse(self, a, b):
        twice = delta_payload(delta_payload(a, b), b)
        assert twice[: len(a)] == a

    def test_fold_insert_then_update_then_delete(self):
        codec = RSCodec(m=4, k=2)
        group = [b"r0", b"r1!", None, b"r3"]
        accs = [codec.new_parity_accumulator() for _ in range(2)]

        def fold_all(pos, old, new):
            delta = codec.delta(old, new)
            for i in range(2):
                accs[i] = codec.fold(accs[i], i, pos, delta)

        for pos, payload in enumerate(group):
            if payload:
                fold_all(pos, b"", payload)
        fold_all(1, b"r1!", b"r1-changed")
        group[1] = b"r1-changed"
        fold_all(3, b"r3", b"")
        group[3] = None

        expected = codec.encode(group)
        longest = max(len(p) for p in group if p)
        for i in range(2):
            assert codec.parity_bytes(accs[i], longest) == expected[i]

    def test_fold_grows_accumulator(self):
        codec = RSCodec(m=2, k=1)
        acc = codec.new_parity_accumulator()
        acc = codec.fold(acc, 0, 0, b"ab")
        assert len(acc) == 2
        acc = codec.fold(acc, 0, 1, b"wxyz")
        assert len(acc) == 4
        assert codec.parity_bytes(acc, 4) == codec.encode([b"ab", b"wxyz"])[0]

    def test_parity_bytes_pads_short_accumulator(self):
        codec = RSCodec(m=2, k=1)
        acc = codec.new_parity_accumulator(2)
        assert codec.parity_bytes(acc, 5) == b"\0" * 5

    def test_coefficient_bounds(self):
        codec = RSCodec(m=2, k=1)
        with pytest.raises(IndexError):
            codec.coefficient(1, 0)
        with pytest.raises(IndexError):
            codec.coefficient(0, 2)
        assert codec.coefficient(0, 0) == 1


# ----------------------------------------------------------------------
# The MDS invariant, property-tested (DESIGN.md invariant 1)
# ----------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_any_k_losses_recoverable(data):
    width = data.draw(st.sampled_from([8, 16]))
    m = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=1, max_value=3))
    codec = RSCodec(m=m, k=k, field=GF(width))
    payloads = [
        data.draw(st.binary(min_size=1, max_size=24)) for _ in range(m)
    ]
    shares = make_group(codec, payloads)
    n_lost = data.draw(st.integers(min_value=1, max_value=k))
    lost = data.draw(
        st.lists(
            st.sampled_from(sorted(shares)),
            min_size=n_lost,
            max_size=n_lost,
            unique=True,
        )
    )
    survivors = {p: v for p, v in shares.items() if p not in lost}
    lengths = {j: len(payloads[j]) for j in range(m)}
    recovered = codec.recover(survivors, lost, payload_lengths=lengths)
    for pos in lost:
        if pos < m:
            assert recovered[pos] == payloads[pos]
        else:
            assert recovered[pos] == shares[pos]


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_property_incremental_equals_full_encode(data):
    """Invariant 3 at codec level: any interleaving of Δ-folds equals a
    from-scratch encode of the final group state."""
    m = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=1, max_value=3))
    codec = RSCodec(m=m, k=k)
    state: list[bytes] = [b""] * m
    accs = [codec.new_parity_accumulator() for _ in range(k)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        pos = data.draw(st.integers(min_value=0, max_value=m - 1))
        new = data.draw(st.binary(max_size=16))
        delta = codec.delta(state[pos], new)
        for i in range(k):
            accs[i] = codec.fold(accs[i], i, pos, delta)
        state[pos] = new
    expected = codec.encode([p or None for p in state])
    longest = max((len(p) for p in state if p), default=0)
    for i in range(k):
        assert codec.parity_bytes(accs[i], longest) == expected[i]
