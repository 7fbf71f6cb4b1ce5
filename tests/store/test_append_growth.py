"""Appends journal the batch, not the source's dictionary.

A batch sliced from a wider table (``Table.take``, as
``split_for_streaming`` does) carries that table's whole categorical
dictionary.  The catalog journals ``Table.coerce_delta``'s compacted
delta, so the store's FTS index and stored dictionaries grow with the
batch's labels.  Stores written before compaction journaled the full
dictionary; they must still load and warm-restore bit-identically.
"""

from __future__ import annotations

import json
import sqlite3

import numpy as np
import pytest

from repro.core.config import AtlasConfig, Fidelity
from repro.datagen import split_for_streaming
from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.evaluation.metrics import map_set_fingerprint
from repro.service.service import ExplorationService
from repro.store import TableStore

CONFIG = AtlasConfig(fidelity=Fidelity.parse("sketch:64"), seed=3)


def wide_table(n_rows: int, n_labels: int, seed: int = 0) -> Table:
    """Tickets whose title dictionary holds ``n_labels`` labels."""
    rng = np.random.default_rng(seed)
    return Table(
        [
            NumericColumn("hours", rng.uniform(0.0, 100.0, n_rows)),
            CategoricalColumn(
                "severity",
                rng.integers(0, 3, n_rows),
                ["low", "high", "urgent"],
            ),
            CategoricalColumn(
                "title",
                rng.integers(-1, n_labels, n_rows),
                [f"ticket {i} disk" for i in range(n_labels)],
            ),
        ],
        name="events",
    )


def assert_same_table(left: Table, right: Table) -> None:
    assert left.version == right.version
    assert left.n_rows == right.n_rows
    np.testing.assert_array_equal(
        left.numeric("hours").data, right.numeric("hours").data
    )
    for name in ("severity", "title"):
        assert (
            left.categorical(name).categories
            == right.categorical(name).categories
        )
        np.testing.assert_array_equal(
            left.categorical(name).codes, right.categorical(name).codes
        )


def stored_title(path: str, version: int) -> tuple[int, list[str]]:
    """``(FTS rows for title, stored title dictionary at version)``."""
    with sqlite3.connect(path) as conn:
        aux = conn.execute(
            "SELECT aux FROM columns WHERE table_name='events' "
            "AND version=? AND name='title'",
            (version,),
        ).fetchone()[0]
        try:
            fts = conn.execute(
                "SELECT COUNT(*) FROM label_fts WHERE column_name='title'"
            ).fetchone()[0]
        except sqlite3.OperationalError:  # built without FTS5
            fts = -1
    return fts, json.loads(aux)


def test_store_growth_follows_the_batch(tmp_path):
    path = str(tmp_path / "atlas.db")
    source = wide_table(n_rows=61_000, n_labels=50_000)
    initial = source.take(np.arange(60_000))
    batch = source.take(np.arange(60_000, 61_000))
    assert batch.categorical("title").categories is (
        source.categorical("title").categories
    )
    with ExplorationService(max_workers=1, store=path) as service:
        service.register(initial, persist=True)
        fts_before, _ = stored_title(path, 0)
        service.append("events", batch)
        expected = initial.append(batch)
        assert_same_table(service.catalog.resolve("events"), expected)
    fts_after, dictionary = stored_title(path, 1)
    title = batch.categorical("title")
    used = {title.categories[c] for c in title.codes if c >= 0}
    assert set(dictionary) == used
    assert len(dictionary) <= 1_000
    if fts_before >= 0:
        assert fts_after - fts_before <= len(used)
    with TableStore(path) as store:
        assert_same_table(store.load_table("events"), expected)
        assert "ticket 7 disk" in store.search(
            "events", "title", "ticket 7 disk", mode="match"
        )


@pytest.mark.parametrize("later_appends", [0, 2])
def test_full_dictionary_journal_still_restores(tmp_path, later_appends):
    """A store written before compaction journaled the whole dictionary
    of a sliced batch; it loads, replays and warm-starts bit-identically
    with no migration, also when compacted appends follow."""
    path = str(tmp_path / "atlas.db")
    source = wide_table(n_rows=2_400, n_labels=900, seed=1)
    initial, batches = split_for_streaming(
        source, n_batches=1 + later_appends, initial_fraction=0.5
    )
    with TableStore(path) as store:
        store.register_table(initial)
        # The pre-compaction journal: the delta exactly as sliced.
        store.append("events", batches[0], from_version=0, to_version=1)
        _, dictionary = stored_title(path, 1)
        assert len(dictionary) == 900
    expected = initial.append(batches[0])
    with ExplorationService(max_workers=1, store=path) as service:
        assert_same_table(service.catalog.resolve("events"), expected)
        for batch in batches[1:]:
            service.append("events", batch)
            expected = expected.append(batch)
        assert_same_table(service.catalog.resolve("events"), expected)
        fingerprint = map_set_fingerprint(
            service.explore("events", config=CONFIG).map_set
        )
    with TableStore(path) as store:
        assert_same_table(store.load_table("events"), expected)
    with ExplorationService(max_workers=1, store=path) as again:
        assert_same_table(again.catalog.resolve("events"), expected)
        warm = again.explore("events", config=CONFIG)
        assert map_set_fingerprint(warm.map_set) == fingerprint
        assert again.metrics()["requests"]["warm_starts"] >= 1
    with ExplorationService(max_workers=1) as in_memory:
        in_memory.register(expected)
        fresh = in_memory.explore("events", config=CONFIG)
        assert map_set_fingerprint(fresh.map_set) == fingerprint
