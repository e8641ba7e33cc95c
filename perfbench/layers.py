"""Per-layer timing for the traced runs.

Spans are taken in the benchmark's own code, around calls into each
layer's public functions; the program itself is not modified. Times
accumulate into a :class:`Ledger` keyed by layer name.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Ledger:
    """Seconds spent and events counted, per layer name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def timed(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += time.perf_counter() - start


class TimedStore:
    """Times and counts every call into the ``EntityStore`` it wraps.

    ``TransformerEmbedder.embed_pairs`` calls only ``load`` and ``save``
    on its store, so wrapping those two sees all store traffic.
    """

    def __init__(self, store, ledger: Ledger) -> None:
        self._store = store
        self._ledger = ledger

    def load(self, key):
        record = self._ledger.timed("entity_store.load", self._store.load, key)
        self._ledger.counts["entity_store.hits" if record is not None
                            else "entity_store.misses"] += 1
        return record

    def save(self, key, arrays) -> None:
        self._ledger.timed("entity_store.save", self._store.save, key, arrays)
        self._ledger.counts["entity_store.writes"] += 1

    def store_seconds(self) -> float:
        return (self._ledger.seconds["entity_store.load"]
                + self._ledger.seconds["entity_store.save"])


def embed_with_store(embed_pairs, couples, store, ledger: Ledger):
    """``embed_pairs(couples, store)`` through a :class:`TimedStore`.

    The time charged to ``adapter.embed`` excludes the time spent in
    the store, which the wrapper charges to ``entity_store.*``.
    """
    if store is None:
        return ledger.timed("adapter.embed", embed_pairs, couples)
    wrapped = TimedStore(store, ledger)
    before = wrapped.store_seconds()
    start = time.perf_counter()
    vectors = embed_pairs(couples, wrapped)
    elapsed = time.perf_counter() - start
    ledger.seconds["adapter.embed"] += elapsed - (wrapped.store_seconds() - before)
    return vectors
