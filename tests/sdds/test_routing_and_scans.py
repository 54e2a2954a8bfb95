"""Focused tests of routing fallbacks and scan variants."""

import numpy as np
import pytest

from repro.sdds import LHStarFile
from repro.sim.network import Network, NodeUnavailable
from repro.sim.rng import make_rng


def grow(file, count, seed=7):
    rng = make_rng(seed)
    keys = [int(k) for k in rng.choice(10**9, size=count, replace=False)]
    for key in keys:
        file.insert(key, b"x" * 16)
    return keys


class TestCoordinatorRouting:
    def test_route_delivers_and_corrects_image(self):
        file = LHStarFile(capacity=8)
        keys = grow(file, 150)
        client = file.client
        # Force the client through the routing path directly.
        op = {"key": keys[0], "client": client.node_id,
              "request": client._next_request()}
        client._route_via_coordinator("search", op)
        reply = client._results.pop(op["request"])
        assert reply["found"]
        state = file.coordinator.state
        assert (client.image.n, client.image.i) == state.as_tuple()

    def test_forwarding_bucket_down_falls_back_to_coordinator(self):
        """A2 forwarding that hits a dead bucket reroutes via the
        coordinator instead of losing the request (LH*g §2.8 rule)."""
        file = LHStarFile(capacity=8)
        keys = grow(file, 300)
        state = file.coordinator.state
        # Find a key whose fresh-image route forwards through a bucket
        # we can kill without killing the final destination.
        fresh = file.new_client()
        for key in keys:
            start = fresh.image.address(key)
            true = state.address(key)
            if start != true:
                break
        else:
            pytest.skip("no forwarding case found")
        file.network.fail(f"f.d{true}")
        # Plain LH* client surfaces NodeUnavailable only if the *final*
        # bucket is dead — which it is here; check the surface.
        with pytest.raises(NodeUnavailable):
            # routed via coordinator -> coordinator delivers -> dead
            fresh.search(key)

    def test_route_of_mutations(self):
        file = LHStarFile(capacity=8)
        grow(file, 100)
        client = file.client
        client._route_via_coordinator(
            "insert", {"key": 777, "value": b"routed", "client": client.node_id}
        )
        assert file.search(777).value == b"routed"


class TestScanVariants:
    def test_multicast_less_network_scan_costs_per_bucket(self):
        network = Network(multicast_available=False)
        file = LHStarFile(capacity=8, network=network)
        grow(file, 150)
        for key in range(50):
            file.search(key)
        with file.stats.measure("scan") as window:
            result = file.scan()
        assert result.complete
        # Without a multicast fabric every request is unicast: at least
        # one request per bucket plus one reply per bucket.
        assert window.messages >= 2 * file.bucket_count

    def test_multicast_fabric_scan_cheaper(self):
        with_fabric = LHStarFile(capacity=8, network=Network())
        without = LHStarFile(
            capacity=8, network=Network(multicast_available=False)
        )
        grow(with_fabric, 150)
        grow(without, 150)
        with with_fabric.stats.measure("scan") as w1:
            with_fabric.scan()
        with without.stats.measure("scan") as w2:
            without.scan()
        assert w1.messages < w2.messages

    def test_probabilistic_scan_cannot_prove_completeness(self):
        file = LHStarFile(capacity=8)
        grow(file, 150)
        file.network.fail(f"f.d{file.bucket_count - 1}")
        result = file.scan(deterministic=False)
        # It reports complete=True by construction — the point is that
        # it *cannot* detect the dead bucket, unlike deterministic mode.
        assert result.complete
        deterministic = file.scan(deterministic=True)
        assert not deterministic.complete

    def test_scan_empty_file(self):
        file = LHStarFile(capacity=8)
        result = file.scan()
        assert result.complete
        assert result.records == []

    def test_scan_replies_carry_levels_for_termination(self):
        file = LHStarFile(capacity=8)
        grow(file, 200)
        result = file.scan()
        assert result.expected_buckets == file.bucket_count


class TestKeyValidation:
    @pytest.mark.parametrize("bad", [-1, 1.5, "key", None, True, 1.0, "1"])
    def test_bad_keys_rejected_client_side(self, bad):
        file = LHStarFile(capacity=8)
        with pytest.raises(ValueError, match="non-negative integers"):
            file.insert(bad, b"v")
        with pytest.raises(ValueError):
            file.search(bad)
        with pytest.raises(ValueError):
            file.delete(bad)

    def test_zero_and_huge_keys_fine(self):
        file = LHStarFile(capacity=8)
        file.insert(0, b"zero")
        file.insert(2**62, b"huge")
        assert file.search(0).value == b"zero"
        assert file.search(2**62).value == b"huge"

    def test_numpy_integers_are_keys_too(self):
        # Off the plain-int fast path, through the numbers.Integral check.
        file = LHStarFile(capacity=8)
        file.insert(np.int64(5), b"five")
        assert file.search(5).value == b"five"
        with pytest.raises(ValueError, match="non-negative integers"):
            file.insert(np.int64(-5), b"v")


class TestStatusAndIntrospection:
    def test_status_handler(self):
        file = LHStarFile(capacity=8)
        grow(file, 50)
        reply = file.client.call("f.d0", "status")
        assert reply["bucket"] == 0
        assert reply["records"] == len(file.data_servers()[0].bucket)

    def test_state_handler(self):
        file = LHStarFile(capacity=8)
        grow(file, 120)
        reply = file.client.call("f.coord", "state")
        assert (reply["n"], reply["i"]) == file.coordinator.state.as_tuple()

    def test_forward_counters(self):
        file = LHStarFile(capacity=8)
        keys = grow(file, 300)
        fresh = file.new_client()
        for key in keys[:100]:
            fresh.search(key)
        assert sum(s.forwards for s in file.data_servers()) > 0


class TestScanStaleImage:
    """Deterministic scans against images the file has moved away from.

    The completeness proof and the fan-out both derive the extent
    M = n + 2^i·N from one place (``addressing.file_extent``); these
    pin the behaviours that proof protects."""

    def test_scan_with_stale_oversized_image_after_shrink(self):
        file = LHStarFile(capacity=8)
        keys = grow(file, 200)
        client = file.client
        for key in keys:
            client.search(key)  # converge the image on the grown file
        for _ in range(8):
            file.coordinator.merge_once()
        # The image now points past the end of the shrunken file: the
        # fan-out hits unknown nodes, yet every live bucket replies and
        # the derived extent must prove completeness from those alone.
        assert client.image.bucket_count_estimate > file.bucket_count
        result = client.scan()
        assert result.complete
        assert result.expected_buckets == file.bucket_count
        assert sorted(k for k, _ in result.records) == sorted(keys)
        assert len(result.records) == len(keys)  # no duplicates

    def test_scan_expected_count_matches_exact_image(self):
        from repro.lh import addressing

        file = LHStarFile(capacity=8)
        keys = grow(file, 150)
        result = file.new_client().scan()
        assert result.complete
        state = file.coordinator.state
        assert result.expected_buckets == file.bucket_count
        assert file.bucket_count == addressing.file_extent(
            state.n, state.i, state.n0
        )
        assert sorted(k for k, _ in result.records) == sorted(keys)
