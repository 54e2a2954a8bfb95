"""Memory pin: what the buckets hold per record, measured live.

A record costs its payload in a data bucket plus its share of the
parity rows, and everything else is bucket structure: the record dict,
the ``ranks`` index, the rank column, the parity store's columns.  The
pin keeps that structure from growing back.
"""

import gc
import random
import tracemalloc

from repro import LHRSConfig, LHRSFile

#: live bytes per 128-byte record (m = 4, k = 2, b = 64, 10 000
#: inserts of random 40-bit keys): 886 on CPython 3.11.7 with numpy
#: 2.4, 931 while a data bucket kept a rank -> key dict beside
#: ``ranks``; the bound is the 886 plus 10 %, capped at 967
BYTES_PER_RECORD_BOUND = 967


def test_bucket_structure_per_record_stays_pinned():
    count = 10_000
    rng = random.Random(7)
    file = LHRSFile(LHRSConfig(group_size=4, availability=2, bucket_capacity=64))
    gc.collect()
    tracemalloc.start()
    try:
        # keys and payloads are born inside the traced region: they are
        # part of what a record costs
        for _ in range(count):
            file.insert(rng.getrandbits(40), rng.randbytes(128))
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert file.total_records() == count
    assert live / count <= BYTES_PER_RECORD_BOUND
