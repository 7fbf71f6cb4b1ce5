"""Store persistence properties: replay bit-identity, crash recovery.

Two invariants the persistent store promises:

* a service restarted over the same database answers the same
  exploration **bit-identically** (same :func:`map_set_fingerprint`) —
  the append-log replay reconstructs the exact table and the persisted
  sketch summary restores the exact statistics state;
* the append log is **idempotent under replay** — a writer crashing
  mid-retry re-issues version pairs it already logged, and the stored
  history neither doubles rows nor drifts, for any crash point;
* **delta compaction is invisible** — a table-typed delta whose
  dictionary is the receiver's own, an equal copy, a superset, a
  permutation with unused and fresh labels, or a ``take`` slice of a
  wider source appends to the same codes, dictionary order and version
  as the label-by-label dictionary union, in memory and after a
  restart.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AtlasConfig, Fidelity
from repro.datagen import split_for_streaming
from repro.dataset.column import MISSING_CODE, CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.evaluation.metrics import map_set_fingerprint
from repro.service.service import ExplorationService
from repro.store import TableStore

_WORDS = (
    "disk",
    "outage",
    "network",
    "timeout",
    "error",
    "latency",
    "cpu",
    "memory",
)

titles = st.lists(
    st.sampled_from(_WORDS), min_size=1, max_size=3
).map(" ".join)

columns = st.integers(min_value=8, max_value=24).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(
                min_value=0.0, max_value=100.0, allow_nan=False
            ),
            min_size=n,
            max_size=n,
        ),
        st.lists(titles, min_size=n, max_size=n),
    )
)

deltas = st.lists(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(
                    min_value=0.0, max_value=100.0, allow_nan=False
                ),
                min_size=n,
                max_size=n,
            ),
            st.lists(titles, min_size=n, max_size=n),
        )
    ),
    min_size=0,
    max_size=3,
)


def build_table(data: tuple[list[float], list[str]]) -> Table:
    hours, texts = data
    return Table(
        [
            NumericColumn("hours", hours),
            CategoricalColumn.from_values("title", texts),
        ],
        name="events",
    )


def tables_identical(
    left: Table, right: Table, *, same_version: bool = True
) -> None:
    if same_version:
        assert left.version == right.version
    assert left.n_rows == right.n_rows
    np.testing.assert_array_equal(
        left.numeric("hours").data, right.numeric("hours").data
    )
    assert (
        left.categorical("title").categories
        == right.categorical("title").categories
    )
    np.testing.assert_array_equal(
        left.categorical("title").codes, right.categorical("title").codes
    )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(base=columns, extra=deltas)
def test_restarted_service_answers_bit_identically(base, extra):
    """register → append → explore → restart → same fingerprint, warm."""
    config = AtlasConfig(fidelity=Fidelity.parse("sketch:16"), seed=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/atlas.db"
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(build_table(base), persist=True)
            for hours, texts in extra:
                service.append(
                    "events", {"hours": hours, "title": texts}
                )
            cold = service.explore("events", config=config)
            fingerprint = map_set_fingerprint(cold.map_set)
            final = service.catalog.resolve("events")
        with ExplorationService(max_workers=1, store=path) as again:
            restored = again.catalog.resolve("events")
            tables_identical(restored, final)
            warm = again.explore("events", config=config)
            assert map_set_fingerprint(warm.map_set) == fingerprint
            assert again.metrics()["requests"]["warm_starts"] >= 1


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    base=columns,
    extra=deltas,
    crash_after=st.integers(min_value=0, max_value=3),
)
def test_crash_mid_append_replay_is_idempotent(base, extra, crash_after):
    """Re-issuing already-logged version pairs never doubles rows."""
    table = build_table(base)
    coerced = []
    current = table
    for hours, texts in extra:
        delta = current.coerce_delta({"hours": hours, "title": texts})
        coerced.append(delta)
        current = current.append(delta)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/atlas.db"
        with TableStore(path) as store:
            store.register_table(table)
            for i, delta in enumerate(coerced[:crash_after]):
                store.append(
                    "events", delta, from_version=i, to_version=i + 1
                )
        # The writer "crashes" and restarts: it conservatively replays
        # the whole append history from the beginning.  Already-logged
        # pairs are no-ops; the rest apply normally.
        with TableStore(path) as store:
            for i, delta in enumerate(coerced):
                applied = store.append(
                    "events", delta, from_version=i, to_version=i + 1
                )
                assert applied == (i >= min(crash_after, len(coerced)))
            tables_identical(store.load_table("events"), current)
            assert store.describe("events")["appends"] == len(coerced)


@settings(max_examples=10, deadline=None)
@given(base=columns)
def test_load_table_is_bit_identical_after_reopen(base):
    table = build_table(base)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/atlas.db"
        with TableStore(path) as store:
            store.register_table(table)
        with TableStore(path) as store:
            tables_identical(store.load_table("events"), table)


@pytest.mark.parametrize("mode", ["match", "contains"])
def test_store_search_agrees_with_predicate_mask(mode):
    """Stored-label search returns exactly the labels the mask selects."""
    from repro.query.predicate import ContainsPredicate, MatchPredicate

    table = build_table(
        (
            [1.0, 2.0, 3.0, 4.0],
            [
                "disk outage",
                "network timeout error",
                "disk error",
                "cpu latency",
            ],
        )
    )
    with TableStore() as store:
        store.register_table(table)
        found = set(store.search("events", "title", "error", mode=mode))
    if mode == "match":
        predicate = MatchPredicate("title", "error")
    else:
        predicate = ContainsPredicate("title", "error")
    mask = predicate.mask(table)
    col = table.categorical("title")
    from_mask = {col.categories[c] for c in col.codes[mask]}
    assert found == from_mask


# ---------------------------------------------------------------------- #
# Table-typed deltas: dictionary compaction
# ---------------------------------------------------------------------- #

DICTIONARY_SHAPES = ("own", "equal", "superset", "permuted", "slice")

table_deltas = st.lists(
    st.tuples(
        st.sampled_from(DICTIONARY_SHAPES),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**16),
    ),
    min_size=1,
    max_size=4,
)


def table_delta(current: Table, shape: str, n: int, seed: int) -> Table:
    """A delta of ``n`` rows whose title dictionary has ``shape``."""
    rng = np.random.default_rng(seed)
    title = current.categorical("title")
    fresh = [f"fresh {current.version} {i}" for i in range(3)]
    hours = NumericColumn("hours", rng.uniform(0.0, 100.0, n))
    if shape == "own":
        # The receiver's own tuple, as a take of its rows shares it.
        column = title.take(rng.integers(0, len(title), n))
        assert column.categories is title.categories
    else:
        if shape == "equal":
            dictionary = list(title.categories)
        elif shape == "permuted":
            dictionary = [
                str(label)
                for label in rng.permutation(list(title.categories) + fresh)
            ]
        else:  # a superset, or the wider source a slice is taken from
            dictionary = list(title.categories) + fresh
        codes = rng.integers(MISSING_CODE, len(dictionary), 4 * n)
        column = CategoricalColumn("title", codes, dictionary)
        if shape == "slice":
            column = column.take(rng.choice(4 * n, size=n, replace=False))
        else:
            column = column.take(np.arange(n))
    return Table([hours, column], name="events_delta")


def union_append(current: Table, delta: Table) -> Table:
    """The appended table built label by label (the reference)."""
    title, extra = current.categorical("title"), delta.categorical("title")
    categories = list(title.categories)
    index = {label: code for code, label in enumerate(categories)}
    for label in extra.categories:
        if label not in index:
            index[label] = len(categories)
            categories.append(label)
    codes = [
        MISSING_CODE if code == MISSING_CODE
        else index[extra.categories[code]]
        for code in extra.codes
    ]
    out = Table(
        [
            NumericColumn(
                "hours",
                np.concatenate(
                    [current.numeric("hours").data, delta.numeric("hours").data]
                ),
            ),
            CategoricalColumn(
                "title", np.concatenate([title.codes, codes]), categories
            ),
        ],
        name=current.name,
    )
    out._version = current.version + 1
    return out


def assert_compacted(current: Table, delta: Table, coerced: Table) -> None:
    """The coerced dictionary keeps exactly the used and lacking labels,
    in their original relative order."""
    full = delta.categorical("title")
    kept = coerced.categorical("title").categories
    used = {full.categories[c] for c in full.codes if c != MISSING_CODE}
    known = set(current.categorical("title").categories)
    assert kept == tuple(
        label for label in full.categories
        if label in used or label not in known
    )
    assert coerced.categorical("title").decode() == full.decode()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(base=columns, extra=table_deltas)
def test_compacted_deltas_append_like_the_full_union(base, extra):
    current = build_table(base)
    for shape, n, seed in extra:
        delta = table_delta(current, shape, n, seed)
        coerced = current.coerce_delta(delta)
        assert_compacted(current, delta, coerced)
        expected = union_append(current, delta)
        tables_identical(current.append(coerced), expected)
        tables_identical(current.append(delta), expected)
        current = expected


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(base=columns, extra=table_deltas)
def test_restart_after_table_deltas_answers_bit_identically(base, extra):
    config = AtlasConfig(fidelity=Fidelity.parse("sketch:16"), seed=2)
    expected = build_table(base)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/atlas.db"
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(expected, persist=True)
            for shape, n, seed in extra:
                delta = table_delta(expected, shape, n, seed)
                expected = union_append(expected, delta)
                service.append("events", delta)
            final = service.catalog.resolve("events")
            tables_identical(final, expected)
            cold = service.explore("events", config=config)
            fingerprint = map_set_fingerprint(cold.map_set)
        with ExplorationService(max_workers=1, store=path) as again:
            tables_identical(again.catalog.resolve("events"), expected)
            warm = again.explore("events", config=config)
            assert map_set_fingerprint(warm.map_set) == fingerprint


@settings(max_examples=10, deadline=None)
@given(base=columns, n_batches=st.integers(min_value=1, max_value=4))
def test_split_for_streaming_batches_rebuild_the_source(base, n_batches):
    """Every batch carries the source's whole dictionary; compacted, the
    appends still land on the source's exact codes and dictionary."""
    source = build_table(base)
    initial, batches = split_for_streaming(source, n_batches=n_batches)
    current = initial
    for batch in batches:
        coerced = current.coerce_delta(batch)
        assert_compacted(current, batch, coerced)
        current = current.append(coerced)
    assert current.version == n_batches
    tables_identical(current, source, same_version=False)
