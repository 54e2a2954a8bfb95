"""Unit tests for the contiguous parity stripe store."""

import numpy as np
import pytest

from repro.core.stripe_store import StripeStore
from repro.gf import GF


@pytest.fixture(params=[8, 16], ids=["gf8", "gf16"])
def field(request):
    return GF(request.param)


def rendered(store):
    """``{rank: parity bytes}``, one record at a time."""
    return {rank: store.field.bytes_from_symbols(store.view(rank)) for rank in store}


class TestLifecycle:
    def test_rejects_sub_byte_fields(self):
        with pytest.raises(ValueError):
            StripeStore(GF(4))

    def test_ensure_view_roundtrip(self, field):
        store = StripeStore(field)
        store.ensure(3, 4)
        view = store.view(3)
        assert view.shape == (4,)
        view[:] = [1, 2, 3, 4]
        assert (store.view(3) == [1, 2, 3, 4]).all()
        assert 3 in store and len(store) == 1
        assert len(store.view(3)) == 4

    def test_views_write_through_to_matrix(self, field):
        store = StripeStore(field)
        store.ensure(0, 2)
        store.view(0)[:] = 7
        ranks, matrix = store.stacked()
        assert ranks == [0]
        assert (matrix[0, :2] == 7).all()

    def test_release_zeroes_and_recycles(self, field):
        store = StripeStore(field)
        store.ensure(1, 3)
        store.view(1)[:] = 9
        row = store._row_of[1]
        store.release(1)
        assert 1 not in store
        assert (store.matrix[row] == 0).all()
        store.ensure(2, 3)
        assert store._row_of[2] == row  # recycled

    def test_length_grows_monotonically(self, field):
        store = StripeStore(field)
        store.ensure(0, 4)
        store.view(0)[:] = 5
        store.ensure(0, 2)  # shorter request never shrinks
        assert len(store.view(0)) == 4
        store.ensure(0, 6)
        assert len(store.view(0)) == 6
        assert (store.view(0)[:4] == 5).all()
        assert (store.view(0)[4:] == 0).all()


class TestGrowth:
    def test_width_growth_reallocates_and_preserves_content(self, field):
        store = StripeStore(field)
        store.ensure(0, 4)
        view = store.view(0)
        view[:] = 3
        store.ensure(0, 100)
        fresh = store.view(0)
        assert (fresh[:4] == 3).all()  # content preserved
        assert fresh.base is not view.base  # a view dies with the growth

    def test_row_growth_preserves_content(self, field):
        store = StripeStore(field)
        shapes = set()
        for rank in range(40):
            store.ensure(rank, 8)
            shapes.add(store.matrix.shape)
            store.view(rank)[:] = rank % 250 + 1
        assert 2 <= len(shapes) <= 6  # grew geometrically, not per insert
        for rank in range(40):
            assert (store.view(rank) == rank % 250 + 1).all()

    def test_scatter_xor_equals_ensure_view_xor(self, field):
        """One scatter over fresh and known ranks, growing both ways,
        lands what per-rank ``ensure`` + ``view`` XORs land."""
        one, other = StripeStore(field), StripeStore(field)
        rng = np.random.default_rng(5)
        for ranks, width in [([0, 1], 4), ([1, 2, 30, 31, 32, 33, 34], 21),
                             (list(range(3, 29)), 9)]:
            lengths = [int(rng.integers(1, width + 1)) for _ in ranks]
            lengths[0] = width
            rows = np.zeros((len(ranks), width), dtype=field.symbol_dtype)
            for i, length in enumerate(lengths):
                rows[i, :length] = rng.integers(1, 200, length)
            one.scatter_xor(ranks, lengths, rows)
            for rank, length, row in zip(ranks, lengths, rows):
                other.ensure(rank, length)
                other.view(rank)[:length] ^= row[:length]
        assert rendered(one) == rendered(other)


class TestStaleHandles:
    """Stale handles must fail loudly, never read recycled memory: a
    dropped rank disappears from the map, so a caller holding one (after
    a release or a merge's ``parity.load`` replacement) gets a
    ``KeyError``."""

    def test_view_of_unknown_rank_raises(self, field):
        store = StripeStore(field)
        with pytest.raises(KeyError):
            store.view(3)
        with pytest.raises(KeyError):
            store.snapshot(3)

    def test_view_after_release_raises(self, field):
        store = StripeStore(field)
        store.ensure(3, 4)
        store.release(3)
        with pytest.raises(KeyError):
            store.view(3)
        with pytest.raises(KeyError):
            store.release(3)  # double release is a bug, not a no-op

    def test_view_of_rank_dropped_by_bulk_load_raises(self, field):
        """bulk_load models merge/recovery replacement: every rank not in
        the new content must be gone."""
        store = StripeStore(field)
        store.ensure(9, 4)
        stale = store.view(9)
        stale[:] = 7
        store.bulk_load([(1, b"\x01\x02\x03\x04"), (2, b"\x05\x06")])
        with pytest.raises(KeyError):
            store.view(9)
        # Writes through the stale view never reach the new matrix.
        stale[:] = 123
        assert (store.matrix != 123).all()


class TestBulkViews:
    def test_stacked_orders_by_rank(self, field):
        store = StripeStore(field)
        for rank in (5, 1, 3):
            store.ensure(rank, 2)
            store.view(rank)[:] = rank
        ranks, matrix = store.stacked()
        assert ranks == [1, 3, 5]
        for i, rank in enumerate(ranks):
            assert (matrix[i, :2] == rank).all()

    def test_dump_matches_per_record_rendering(self, field):
        """A dump holds the used rows — a released one is left out — at
        the store's width, each row's stripe padded past its extent."""
        store = StripeStore(field, slots=2)
        payloads = {
            2: bytes(range(10)),
            7: bytes(range(100, 116)),
            4: b"\x00\xff" * 3,
        }
        store.ensure(5, 1)
        for rank, payload in payloads.items():
            length = field.symbol_length_for_bytes(len(payload))
            store.ensure(rank, length)
            store.view(rank)[:] = field.symbols_from_bytes(payload, length)
        store.release(5)
        expected = rendered(store)
        dump = store.dump()
        assert sorted(dump["rank_of"]) == sorted(payloads)
        assert len(dump["dir_keys"]) == len(dump["dir_lengths"]) == 2 * 3
        itemsize = np.dtype(field.symbol_dtype).itemsize
        stride = dump["width"] * itemsize
        for row, (rank, extent) in enumerate(zip(dump["rank_of"], dump["extents"])):
            stripe = dump["matrix"][row * stride : (row + 1) * stride]
            assert stripe[: extent * itemsize] == expected[rank]
            assert stripe[: len(payloads[rank])] == payloads[rank]
            assert not stripe[extent * itemsize :].strip(b"\0")
        # a copy: the store moving on leaves the dump as it was
        before = {name: list(v) if isinstance(v, list) else v
                  for name, v in dump.items()}
        store.view(2)[:] = 0
        store.release(7)
        assert dump == before
        copy = StripeStore(field, slots=2)
        copy.load_image(dump)
        assert rendered(copy) == expected

    def test_bulk_load_replaces_content(self, field):
        store = StripeStore(field)
        store.ensure(9, 4)
        store.bulk_load([(1, b"abcd"), (2, b"xy")])
        assert sorted(store) == [1, 2]
        assert field.bytes_from_symbols(store.view(1)) == b"abcd"
        assert len(store.view(2)) == field.symbol_length_for_bytes(2)

    def test_nbytes_counts_logical_payload_only(self, field):
        store = StripeStore(field)
        store.ensure(0, 3)
        store.ensure(1, 5)
        itemsize = np.dtype(field.symbol_dtype).itemsize
        assert store.nbytes() == 8 * itemsize
