"""Suite-wide oracle: every message any test sends weighs what the
payload walker says.

The envelope sizes registered kinds through functions compiled from the
protocol registry (``repro.proto.wire``) and lets senders hand a size
along with further copies of a payload they already sized.  Both must
give the walker's number to the byte, or ``wire_bytes_per_op`` drifts on
traffic no targeted test thought of — so the whole suite checks it, on
every message it constructs: fault-plane duplicates and corrupted
copies, multicast copies, Δ fan-outs, ``*_many`` batches, splits,
merges, restarts and rebuilds included.
"""

from collections import Counter

import pytest

from repro.sim.messages import HEADER_BYTES, Message, estimate_size


@pytest.fixture(autouse=True)
def wire_sizes(monkeypatch):
    """Checks each constructed message; yields a Counter of
    ``(kind, came_pre_sized)`` over the messages the test sent."""
    construct = Message.__init__
    seen: Counter = Counter()
    mismatches: list[str] = []

    def checked(self, sender, recipient, kind, payload=None, size=0):
        construct(self, sender, recipient, kind, payload, size)
        seen[kind, bool(size)] += 1
        walked = HEADER_BYTES + estimate_size(payload)
        if self.size != walked:
            mismatches.append(
                f"{kind}: {'handed' if size else 'compiled'} size "
                f"{self.size} != walked {walked}"
            )
            raise AssertionError(mismatches[-1])

    monkeypatch.setattr(Message, "__init__", checked)
    yield seen
    # Again here: product code may have swallowed the AssertionError.
    assert not mismatches, mismatches[:5]
