"""Unit and property tests for GF(2^w) scalar and payload arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF

WIDTHS = [4, 8, 16]
#: the widths with a byte payload form (GF(2^4) is arithmetic only)
BYTE_WIDTHS = [8, 16]
#: built at import: a GF(2^16)'s first construction pays the one-off
#: table build, which must not land inside a deadline-timed example
BYTE_FIELDS = {width: GF(width) for width in BYTE_WIDTHS}


@pytest.fixture(params=WIDTHS, ids=[f"gf{w}" for w in WIDTHS])
def field(request):
    return GF(request.param)


def elements(width, min_value=0):
    return st.integers(min_value=min_value, max_value=(1 << width) - 1)


# ----------------------------------------------------------------------
# scalar axioms
# ----------------------------------------------------------------------
class TestScalarAxioms:
    @given(data=st.data())
    def test_mul_commutative(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        f = GF(width)
        a = data.draw(elements(width))
        b = data.draw(elements(width))
        assert f.mul(a, b) == f.mul(b, a)

    @given(data=st.data())
    def test_mul_associative(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        f = GF(width)
        a, b, c = (data.draw(elements(width)) for _ in range(3))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))

    @given(data=st.data())
    def test_distributive(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        f = GF(width)
        a, b, c = (data.draw(elements(width)) for _ in range(3))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)

    @given(data=st.data())
    def test_inverse_roundtrip(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        f = GF(width)
        a = data.draw(elements(width, min_value=1))
        assert f.mul(a, f.inv(a)) == 1

    @given(data=st.data())
    def test_div_is_mul_by_inverse(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        f = GF(width)
        a = data.draw(elements(width))
        b = data.draw(elements(width, min_value=1))
        assert f.div(a, b) == f.mul(a, f.inv(b))

    def test_identities(self, field):
        for a in range(min(field.order, 64)):
            assert field.mul(a, 1) == a
            assert field.mul(a, 0) == 0
            assert field.add(a, 0) == a
            assert field.add(a, a) == 0  # characteristic 2

    def test_exhaustive_gf4_multiplication_closed_and_invertible(self):
        f = GF(4)
        for a in range(16):
            for b in range(16):
                p = f.mul(a, b)
                assert 0 <= p < 16
                if a and b:
                    assert p != 0  # no zero divisors


# ----------------------------------------------------------------------
# error handling
# ----------------------------------------------------------------------
class TestErrors:
    def test_out_of_range_rejected(self, field):
        with pytest.raises(ValueError):
            field.mul(field.order, 1)
        with pytest.raises(ValueError):
            field.add(-1, 0)

    def test_zero_division(self, field):
        with pytest.raises(ZeroDivisionError):
            field.div(1, 0)
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    def test_unsupported_width(self):
        with pytest.raises(ValueError):
            GF(7)

    def test_pow_of_zero(self, field):
        assert field.pow(0, 0) == 1
        assert field.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            field.pow(0, -1)


# ----------------------------------------------------------------------
# pow / log
# ----------------------------------------------------------------------
class TestPowLog:
    def test_pow_matches_repeated_mul(self, field):
        a = 3 % field.order or 1
        acc = 1
        for e in range(10):
            assert field.pow(a, e) == acc
            acc = field.mul(acc, a)

    def test_negative_pow(self, field):
        a = 5 % field.order or 3
        assert field.mul(field.pow(a, -1), a) == 1

    def test_log_exp_roundtrip(self, field):
        for e in range(0, field.group_order, max(1, field.group_order // 50)):
            assert field.log(field.exp(e)) == e % field.group_order


# ----------------------------------------------------------------------
# vectorized symbol ops agree with scalar ops
# ----------------------------------------------------------------------
class TestVectorized:
    @given(data=st.data())
    @settings(max_examples=50)
    def test_mul_symbols_matches_scalar(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        f = GF(width)
        scalar = data.draw(elements(width))
        values = data.draw(st.lists(elements(width), min_size=1, max_size=32))
        arr = np.array(values, dtype=f.symbol_dtype)
        out = f.mul_symbols(arr, scalar)
        assert out.dtype == f.symbol_dtype
        assert [int(v) for v in out] == [f.mul(v, scalar) for v in values]

    def test_mul_row_cached_and_correct(self):
        f = GF(8)
        row = f.mul_row(7)
        assert row is f.mul_row(7)
        for x in (0, 1, 2, 100, 255):
            assert int(row[x]) == f.mul(7, x)

    def test_mul_row_rejected_for_wide_fields(self):
        with pytest.raises(ValueError):
            GF(16).mul_row(3)


# ----------------------------------------------------------------------
# byte payload conversions
# ----------------------------------------------------------------------
class TestPayloads:
    @given(data=st.binary(max_size=64), width=st.sampled_from(BYTE_WIDTHS))
    def test_symbols_bytes_roundtrip(self, data, width):
        f = GF(width)
        symbols = f.symbols_from_bytes(data)
        assert f.bytes_from_symbols(symbols, len(data)) == data

    @given(
        data=st.binary(max_size=64),
        width=st.sampled_from(BYTE_WIDTHS),
        pad=st.integers(min_value=0, max_value=16),
    )
    def test_padded_roundtrip(self, data, width, pad):
        f = GF(width)
        length = f.symbol_length_for_bytes(len(data)) + pad
        symbols = f.symbols_from_bytes(data, length)
        assert len(symbols) == length
        assert f.bytes_from_symbols(symbols, len(data)) == data

    def test_gf4_has_no_byte_form(self):
        f = GF(4)
        for call in (
            lambda: f.symbols_from_bytes(b"ab"),
            lambda: f.bytes_from_symbols(np.zeros(2, dtype=np.uint8)),
            lambda: f.symbol_length_for_bytes(2),
            lambda: f.stack_payloads([b"ab"], 4),
        ):
            with pytest.raises(ValueError, match="no byte payload form"):
                call()

    def test_symbols_from_bytes_rejects_short_target(self):
        f = GF(8)
        with pytest.raises(ValueError):
            f.symbols_from_bytes(b"abcdef", 2)

    @given(
        width=st.sampled_from(BYTE_WIDTHS),
        scalar_seed=st.integers(min_value=0, max_value=1 << 16),
        data=st.binary(min_size=1, max_size=48),
    )
    @settings(max_examples=60)
    def test_scale_accumulate_matches_reference(self, width, scalar_seed, data):
        f = GF(width)
        scalar = scalar_seed % f.order
        acc = np.zeros(f.symbol_length_for_bytes(len(data)) + 3, dtype=f.symbol_dtype)
        f.scale_accumulate(acc, scalar, data)
        expected = f.mul_symbols(f.symbols_from_bytes(data), scalar)
        assert (acc[: len(expected)] == expected).all()
        assert (acc[len(expected):] == 0).all()

    def test_scale_accumulate_overflow_rejected(self):
        f = GF(8)
        acc = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ValueError):
            f.scale_accumulate(acc, 3, b"abcdef")

    def test_scale_accumulate_noop_cases(self):
        f = GF(8)
        acc = np.arange(4, dtype=np.uint8)
        f.scale_accumulate(acc, 0, b"abcd")
        assert (acc == np.arange(4)).all()
        f.scale_accumulate(acc, 5, b"")
        assert (acc == np.arange(4)).all()


# ----------------------------------------------------------------------
# 2D batch kernels agree with the scalar oracle
# ----------------------------------------------------------------------
class TestBatchKernels:
    @given(data=st.data())
    @settings(max_examples=50)
    def test_mul_arrays_matches_scalar(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        f = GF(width)
        values = data.draw(
            st.lists(
                st.tuples(elements(width), elements(width)),
                min_size=1, max_size=32,
            )
        )
        a = np.array([v for v, _ in values], dtype=f.symbol_dtype)
        b = np.array([v for _, v in values], dtype=f.symbol_dtype)
        out = f.mul_arrays(a, b)
        assert [int(v) for v in out] == [f.mul(x, y) for x, y in values]

    @given(data=st.data())
    @settings(max_examples=40)
    def test_mul_matrix_matches_mul_symbols_per_row(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        f = GF(width)
        scalar = data.draw(elements(width))
        rows = data.draw(st.integers(min_value=1, max_value=5))
        cols = data.draw(st.integers(min_value=1, max_value=16))
        matrix = np.array(
            data.draw(
                st.lists(
                    st.lists(elements(width), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows,
                )
            ),
            dtype=f.symbol_dtype,
        )
        out = f.mul_matrix(matrix, scalar)
        for r in range(rows):
            assert (out[r] == f.mul_symbols(matrix[r], scalar)).all()

    def test_mul_matrix_rejects_non_2d(self):
        f = GF(8)
        with pytest.raises(ValueError):
            f.mul_matrix(np.zeros(4, dtype=np.uint8), 3)

    @given(data=st.data())
    @settings(max_examples=30)
    def test_gf_matmul_matches_scalar_accumulation(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        f = GF(width)
        r = data.draw(st.integers(min_value=1, max_value=3))
        c = data.draw(st.integers(min_value=1, max_value=3))
        nranks = data.draw(st.integers(min_value=1, max_value=3))
        length = data.draw(st.integers(min_value=1, max_value=12))
        coeff = np.array(
            data.draw(
                st.lists(
                    st.lists(elements(width), min_size=c, max_size=c),
                    min_size=r, max_size=r,
                )
            ),
            dtype=np.int64,
        )
        stacked = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.lists(elements(width), min_size=length, max_size=length),
                        min_size=nranks, max_size=nranks,
                    ),
                    min_size=c, max_size=c,
                )
            ),
            dtype=f.symbol_dtype,
        )
        out = f.gf_matmul(coeff, stacked)
        assert out.shape == (r, nranks, length)
        for i in range(r):
            for n in range(nranks):
                for s in range(length):
                    expected = 0
                    for j in range(c):
                        expected ^= f.mul(int(coeff[i, j]), int(stacked[j, n, s]))
                    assert int(out[i, n, s]) == expected

    @given(
        width=st.sampled_from(BYTE_WIDTHS),
        payloads=st.lists(
            st.one_of(st.none(), st.binary(max_size=24)),
            min_size=1, max_size=6,
        ),
        pad=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60)
    def test_stack_payloads_matches_symbols_from_bytes(self, width, payloads, pad):
        f = BYTE_FIELDS[width]
        length = max(
            (f.symbol_length_for_bytes(len(p)) for p in payloads if p),
            default=0,
        ) + pad
        stacked = f.stack_payloads(payloads, length)
        assert stacked.shape == (len(payloads), length)
        for i, payload in enumerate(payloads):
            expected = f.symbols_from_bytes(payload or b"", length)
            assert (stacked[i] == expected).all()


# ----------------------------------------------------------------------
# zero-safe single-gather log layout (the wide-field fast path)
# ----------------------------------------------------------------------
class TestZeroSafeLayout:
    """The branch-free mul tables must make zero algebraically safe.

    GF(2^16) is the width that *depends* on this layout — `mul_row`
    caching is rejected there, so every batched multiply rides the
    single `exp_mul[log_mul[a] + log_mul[b]]` gather.  These tests pin
    the table construction itself and then the GF(2^16) kernels built
    on it, zeros included.
    """

    def test_log_zero_sentinel_maps_all_products_to_zero(self):
        from repro.gf.tables import build_mul_tables

        for width in WIDTHS:
            exp_mul, log_mul = build_mul_tables(width)
            group = (1 << width) - 1
            assert int(log_mul[0]) == 2 * group - 1
            # Any index reachable with >= 1 zero operand holds 0.
            assert (exp_mul[int(log_mul[0]):] == 0).all()
            assert int(exp_mul[int(log_mul[0]) + int(log_mul[0])]) == 0

    @given(data=st.data())
    @settings(max_examples=60)
    def test_single_gather_equals_scalar_mul_gf16(self, data):
        from repro.gf.tables import build_mul_tables

        f = GF(16)
        exp_mul, log_mul = build_mul_tables(16)
        # Bias toward zeros: the operands the sentinel exists for.
        a = data.draw(st.one_of(st.just(0), elements(16)))
        b = data.draw(st.one_of(st.just(0), elements(16)))
        gathered = int(exp_mul[int(log_mul[a]) + int(log_mul[b])])
        assert gathered == f.mul(a, b)

    def test_mul_symbols_all_zero_input_gf16(self):
        f = GF(16)
        zeros = np.zeros(64, dtype=f.symbol_dtype)
        for scalar in (0, 1, 2, 0xFFFF):
            out = f.mul_symbols(zeros, scalar)
            assert out.dtype == f.symbol_dtype
            assert (out == 0).all()

    def test_mul_arrays_zero_columns_gf16(self):
        f = GF(16)
        a = np.array([0, 0, 5, 0xFFFF, 0], dtype=np.uint16)
        b = np.array([0, 7, 0, 0, 0xABCD], dtype=np.uint16)
        out = f.mul_arrays(a, b)
        assert [int(v) for v in out] == [0, 0, 0, 0, 0]

    @given(data=st.data())
    @settings(max_examples=40)
    def test_batch_equals_scalar_with_zero_runs_gf16(self, data):
        """batch ≡ scalar over GF(2^16) with dense zero runs mixed in."""
        f = GF(16)
        values = data.draw(
            st.lists(
                st.one_of(st.just(0), elements(16)),
                min_size=1, max_size=48,
            )
        )
        scalar = data.draw(st.one_of(st.just(0), elements(16)))
        arr = np.array(values, dtype=np.uint16)
        assert [int(v) for v in f.mul_symbols(arr, scalar)] == [
            f.mul(v, scalar) for v in values
        ]

    def test_gf_matmul_all_zero_column_gf16(self):
        """A position holding only zero payloads contributes nothing."""
        f = GF(16)
        coeff = np.array([[1, 7, 0x1234]], dtype=np.int64)
        stacked = np.zeros((3, 2, 5), dtype=np.uint16)
        stacked[0, 0] = [1, 2, 3, 4, 5]
        stacked[2, 1] = [9, 9, 0, 9, 9]  # zeros inside a used column too
        out = f.gf_matmul(coeff, stacked)
        for n in range(2):
            for s in range(5):
                expected = f.mul(1, int(stacked[0, n, s])) ^ f.mul(
                    0x1234, int(stacked[2, n, s])
                )
                assert int(out[0, n, s]) == expected

    @given(
        payloads=st.lists(
            st.one_of(st.none(), st.binary(max_size=33)),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=50)
    def test_ragged_odd_length_payloads_gf16(self, payloads):
        """GF(2^16) packs odd-byte payloads with a zero pad byte; ragged
        and all-``None`` (all-zero) columns must round-trip exactly."""
        f = GF(16)
        length = max(
            (f.symbol_length_for_bytes(len(p)) for p in payloads if p),
            default=1,
        )
        stacked = f.stack_payloads(payloads, length)
        for i, payload in enumerate(payloads):
            data = payload or b""
            assert f.bytes_from_symbols(
                np.ascontiguousarray(stacked[i]), len(data)
            ) == data

    @given(
        data=st.binary(min_size=1, max_size=41),
        scalar=st.integers(min_value=0, max_value=0xFFFF),
    )
    @settings(max_examples=50)
    def test_scale_accumulate_odd_lengths_gf16(self, data, scalar):
        f = GF(16)
        acc = np.zeros(f.symbol_length_for_bytes(len(data)) + 2,
                       dtype=np.uint16)
        f.scale_accumulate(acc, scalar, data)
        expected = f.mul_symbols(f.symbols_from_bytes(data), scalar)
        assert (acc[: len(expected)] == expected).all()
        assert (acc[len(expected):] == 0).all()
        # Folding the same Δ again cancels (characteristic 2) — the
        # idempotence hazard the Δ-sequence machinery protects against.
        f.scale_accumulate(acc, scalar, data)
        assert (acc == 0).all()


# ----------------------------------------------------------------------
# the GF(2^8) byte-table kernel, over the whole field
# ----------------------------------------------------------------------
class TestByteTableKernel:
    """At w = 8 a constant multiply is a 256-byte table and
    ``bytes.translate``; every payload kernel must agree with the log/exp
    oracle for all 256 scalars x 256 byte values."""

    def test_every_w8_kernel_matches_the_log_oracle(self):
        f = GF(8)
        every = np.arange(256, dtype=np.uint8)
        data = every.tobytes()
        noise = np.random.default_rng(8).integers(0, 256, 256, dtype=np.uint8)
        for scalar in range(256):
            oracle = f._mul_symbols_log(every.astype(np.int64), scalar)
            oracle = oracle.astype(np.uint8)
            acc = noise.copy()
            f.scale_accumulate(acc, scalar, data)
            assert (acc == noise ^ oracle).all(), scalar
            assert (f.mul_symbols(every, scalar) == oracle).all(), scalar
            matrix = f.mul_matrix(every.reshape(16, 16), scalar)
            assert (matrix.reshape(-1) == oracle).all(), scalar
            # gf_matmul translates even, odd and strided planes alike
            even = every.reshape(1, 1, 256)
            odd = np.append(every, 0).reshape(1, 1, 257)
            strided = np.repeat(every, 2).reshape(1, 1, 512)[..., ::2]
            for plane in (even, odd, strided):
                out = f.gf_matmul([[scalar]], plane)
                assert (out[0, 0, :256] == oracle).all(), scalar
                assert not out[0, 0, 256:].any(), scalar

    def test_a_table_is_256_bytes_cached_per_scalar(self):
        f = GF(8)
        row = f.byte_row(29)
        assert isinstance(row, bytes) and len(row) == 256
        assert f.byte_row(29) is row
        assert list(row) == f.mul_row(29).tolist()
        with pytest.raises(ValueError):
            GF(16).byte_row(3)

    @pytest.mark.parametrize("scalar", [1, 2, 255])
    def test_an_oversize_payload_still_raises(self, scalar):
        acc = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError, match="exceeds accumulator"):
            GF(8).scale_accumulate(acc, scalar, b"12345")
        assert (acc == 0).all()

    def test_a_w16_fold_is_unchanged(self):
        f = GF(16)
        rng = np.random.default_rng(16)
        for length in (1, 2, 99, 256):
            data = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
            symbols = f.symbols_from_bytes(data).astype(np.int64)
            for scalar in (0, 1, 2, 0x1234, 0xFFFF):
                acc = np.zeros(len(symbols) + 1, dtype=np.uint16)
                f.scale_accumulate(acc, scalar, data)
                expected = f._mul_symbols_log(symbols, scalar)
                assert (acc[:-1] == expected).all() and acc[-1] == 0


def test_field_equality_and_hash():
    assert GF(8) == GF(8)
    assert GF(8) != GF(16)
    assert hash(GF(8)) == hash(GF(8))
    assert repr(GF(8)) == "GF(2^8)"
