"""Tests for incremental snapshot deltas (ISSUE 7).

A delta ships only the canonical entries interned after a version
stamp; applied to a replica seeded from a full snapshot it must
reproduce the source store bit-identically -- same classes, same
hashes, same ids -- while being idempotent under replay and loud about
truncation, tampering and mismatched stores.
"""

import copy
import hashlib
import json
import os
import random
import shutil

import pytest

from repro.core.combiners import HashCombiners
from repro.gen.random_exprs import random_expr
from repro.store import (
    DELTA_FORMAT,
    ExprStore,
    Journal,
    ShardedExprStore,
    SnapshotError,
    apply_delta_bytes,
    content_checksum,
    delta_to_bytes,
    snapshot_from_bytes,
    snapshot_to_bytes,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "delta_v1")
CONTENT_FIELDS = {"i", "h", "k", "z", "c", "p", "t"}


def corpus(n, seed=29, size=30):
    rng = random.Random(seed)
    return [random_expr(size, rng=rng, p_let=0.2, p_lit=0.2) for _ in range(n)]


def make_store(layout: str):
    combiners = HashCombiners(bits=64, seed=7)
    if layout == "sharded":
        return ShardedExprStore(combiners, num_shards=4)
    return ExprStore(combiners)


def entry_map(store):
    return {e.node_id: (e.hash, e.kind, e.size, e.children)
            for e in store.entries()}


def delta_records(data):
    return [json.loads(line) for line in data.partition(b"\n")[2].splitlines()]


def reseal(data, records):
    """A delta document with ``records`` as its body and a valid
    header (entry count, checksum): only record validation can object."""
    header = json.loads(data.partition(b"\n")[0])
    body = b"".join(
        json.dumps(r, separators=(",", ":"), sort_keys=True).encode() + b"\n"
        for r in records
    )
    header["entries"] = len(records)
    header["checksum"] = "sha256:" + hashlib.sha256(body).hexdigest()
    return json.dumps(header, separators=(",", ":"), sort_keys=True).encode() + (
        b"\n" + body
    )


def scan_reference(store, since):
    """What a delta window must hold, by a full scan of the store."""
    fresh = sorted(
        (e for e in store.entries() if e.version > since),
        key=lambda e: e.version,
    )
    return [
        [e.node_id, e.hash, e.kind, e.size, list(e.children), e.version]
        for e in fresh
    ]


def content_of(records):
    return [
        [r["i"], r["h"], r["k"], r["z"], r["c"], r["t"]] for r in records
    ]


@pytest.fixture(params=["flat", "sharded"])
def layout(request):
    return request.param


class TestVersionStamps:
    def test_version_monotonic_per_fresh_class(self, layout):
        store = make_store(layout)
        assert store.version == 0
        for expr in corpus(20):
            store.intern(expr)
        assert store.version == len(store)
        versions = sorted(e.version for e in store.entries())
        assert versions == list(range(1, len(store) + 1))

    def test_rehash_does_not_advance_version(self, layout):
        store = make_store(layout)
        items = corpus(10)
        for expr in items:
            store.intern(expr)
        before = store.version
        for expr in items:
            store.intern(expr)
        assert store.version == before

    def test_snapshot_roundtrip_preserves_versions(self, layout):
        store = make_store(layout)
        for expr in corpus(15):
            store.intern(expr)
        restored, _header = snapshot_from_bytes(snapshot_to_bytes(store))
        assert restored.version == store.version
        assert {e.node_id: e.version for e in restored.entries()} == {
            e.node_id: e.version for e in store.entries()
        }


class TestDeltaRoundTrip:
    def test_empty_delta(self, layout):
        store = make_store(layout)
        for expr in corpus(8):
            store.intern(expr)
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(store))
        report = apply_delta_bytes(
            replica, delta_to_bytes(store, store.version)
        )
        assert report == {
            "applied": 0, "skipped": 0, "version": store.version
        }

    def test_since_zero_equals_full_snapshot(self, layout):
        store = make_store(layout)
        for expr in corpus(25):
            store.intern(expr)
        # An empty same-shape store at version 0 catches up from nothing.
        replica = make_store(layout)
        report = apply_delta_bytes(replica, delta_to_bytes(store, 0))
        assert report["applied"] == len(store)
        assert replica.version == store.version
        assert entry_map(replica) == entry_map(store)

    def test_incremental_catch_up_is_bit_identical(self, layout):
        store = make_store(layout)
        first, second = corpus(20, seed=3), corpus(20, seed=4)
        for expr in first:
            store.intern(expr)
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(store))
        stamp = replica.version
        for expr in second:
            store.intern(expr)
        delta = delta_to_bytes(store, stamp)
        seeded = len(replica)
        report = apply_delta_bytes(replica, delta)
        assert report["applied"] == len(store) - seeded
        assert replica.version == store.version
        assert entry_map(replica) == entry_map(store)
        # The caught-up replica hashes and interns like the source:
        # every second-wave root resolves to the same id, no growth.
        before = len(replica)
        for expr in second:
            assert replica.intern(expr) == store.intern(expr)
        assert len(replica) == before

    def test_delta_smaller_than_full_snapshot(self, layout):
        store = make_store(layout)
        for expr in corpus(40, seed=5):
            store.intern(expr)
        stamp = store.version
        for expr in corpus(6, seed=6):
            store.intern(expr)
        assert len(delta_to_bytes(store, stamp)) < len(snapshot_to_bytes(store))

    def test_idempotent_replay(self, layout):
        store = make_store(layout)
        for expr in corpus(12):
            store.intern(expr)
        replica = make_store(layout)
        delta = delta_to_bytes(store, 0)
        first = apply_delta_bytes(replica, delta)
        second = apply_delta_bytes(replica, delta)
        assert second["applied"] == 0
        assert second["skipped"] == first["applied"]
        assert entry_map(replica) == entry_map(store)

    def test_overlapping_deltas(self, layout):
        store = make_store(layout)
        for expr in corpus(10, seed=8):
            store.intern(expr)
        replica = make_store(layout)
        apply_delta_bytes(replica, delta_to_bytes(store, 0))
        early_stamp = store.version // 2
        for expr in corpus(10, seed=9):
            store.intern(expr)
        # Window (early_stamp, version] overlaps what the replica holds:
        # the overlap verifies-and-skips, the tail applies.
        report = apply_delta_bytes(replica, delta_to_bytes(store, early_stamp))
        assert report["skipped"] > 0 and report["applied"] > 0
        assert entry_map(replica) == entry_map(store)


class TestDeltaValidation:
    def _pair(self, layout):
        store = make_store(layout)
        for expr in corpus(10):
            store.intern(expr)
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(store))
        for expr in corpus(5, seed=11):
            store.intern(expr)
        return store, replica

    def test_since_ahead_of_history_rejected(self, layout):
        store = make_store(layout)
        store.intern(corpus(1)[0])
        with pytest.raises(SnapshotError, match="outside this store's history"):
            delta_to_bytes(store, store.version + 1)
        with pytest.raises(SnapshotError, match="outside this store's history"):
            delta_to_bytes(store, -1)

    def test_truncated_delta_rejected(self, layout):
        store, replica = self._pair(layout)
        delta = delta_to_bytes(store, replica.version)
        with pytest.raises(SnapshotError):
            apply_delta_bytes(replica, delta[: len(delta) // 2])

    def test_tampered_body_rejected(self, layout):
        store, replica = self._pair(layout)
        delta = delta_to_bytes(store, replica.version)
        head, _, body = delta.partition(b"\n")
        flipped = bytes([body[0] ^ 1]) + body[1:]
        with pytest.raises(SnapshotError, match="checksum"):
            apply_delta_bytes(replica, head + b"\n" + flipped)

    def test_garbage_header_rejected(self, layout):
        _store, replica = self._pair(layout)
        with pytest.raises(SnapshotError):
            apply_delta_bytes(replica, b"not json\n")

    def test_wrong_format_rejected(self, layout):
        store, replica = self._pair(layout)
        with pytest.raises(SnapshotError, match="not a repro-store-delta"):
            apply_delta_bytes(replica, snapshot_to_bytes(store))

    def test_combiner_mismatch_rejected(self, layout):
        store, _replica = self._pair(layout)
        delta = delta_to_bytes(store, 0)
        other = (
            ShardedExprStore(HashCombiners(bits=64, seed=99), num_shards=4)
            if layout == "sharded"
            else ExprStore(HashCombiners(bits=64, seed=99))
        )
        with pytest.raises(SnapshotError, match="seed"):
            apply_delta_bytes(other, delta)

    def test_store_shape_mismatch_rejected(self, layout):
        store, _replica = self._pair(layout)
        delta = delta_to_bytes(store, 0)
        other = (
            ExprStore(HashCombiners(bits=64, seed=7))
            if layout == "sharded"
            else ShardedExprStore(HashCombiners(bits=64, seed=7), num_shards=4)
        )
        with pytest.raises(SnapshotError, match="shard"):
            apply_delta_bytes(other, delta)

    def test_gap_rejected(self, layout):
        store, replica = self._pair(layout)
        # Emit a window starting beyond what the replica has seen.
        gap_delta = delta_to_bytes(store, replica.version + 2)
        with pytest.raises(SnapshotError, match="missing in between"):
            apply_delta_bytes(replica, gap_delta)

    def test_present_entry_divergence_rejected(self, layout):
        store, replica = self._pair(layout)
        delta = delta_to_bytes(store, 0)
        head, _, body = delta.partition(b"\n")
        lines = body.decode("utf-8").splitlines()
        rec = json.loads(lines[0])
        rec["h"] ^= 1  # same id, different hash: a different store
        lines[0] = json.dumps(rec, separators=(",", ":"), sort_keys=True)
        new_body = ("\n".join(lines) + "\n").encode("utf-8")
        header = json.loads(head)
        import hashlib

        header["checksum"] = (
            "sha256:" + hashlib.sha256(new_body).hexdigest()
        )
        doc = (
            json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
            + b"\n"
            + new_body
        )
        with pytest.raises(SnapshotError):
            apply_delta_bytes(replica, doc)


class TestDeltaAccounting:
    def test_hash_only_traffic_between_stamps_is_invisible(self):
        # Hashing does not create entries, so a stamp window spanning
        # heavy hash traffic ships only the genuinely fresh classes.
        store = ExprStore(HashCombiners(bits=64, seed=7))
        base = corpus(10, seed=21)
        for expr in base:
            store.intern(expr)
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(store))
        stamp = replica.version
        for expr in corpus(30, seed=22):
            store.hash_expr(expr)  # hashing only: no new entries
        for expr in corpus(8, seed=23):
            store.intern(expr)
        seeded = len(replica)
        report = apply_delta_bytes(replica, delta_to_bytes(store, stamp))
        assert report["applied"] == len(store) - seeded
        assert entry_map(replica) == entry_map(store)

    def test_delta_counts_fold_into_stats(self):
        store = ExprStore(HashCombiners(bits=64, seed=7))
        for expr in corpus(10, seed=31):
            store.intern(expr)
        replica = ExprStore(HashCombiners(bits=64, seed=7))
        report = apply_delta_bytes(replica, delta_to_bytes(store, 0))
        # Applied entries are accounted as misses: counters stay
        # conserved (sum of shard counters == store totals elsewhere).
        assert replica.stats.misses == report["applied"]

    def test_format_constant_in_header(self):
        store = ExprStore(HashCombiners(bits=64, seed=7))
        store.intern(corpus(1)[0])
        header = json.loads(delta_to_bytes(store, 0).partition(b"\n")[0])
        assert header["format"] == DELTA_FORMAT
        assert header["since"] == 0
        assert header["version"] == store.version


class TestVersionIndex:
    """Emission walks the store's version index: the cost follows the
    window, and the records match a full scan of the store."""

    def test_small_window_touches_only_the_window(self, layout, monkeypatch):
        store = make_store(layout)
        rng = random.Random(41)
        while len(store) < 20_000:
            store.intern_many(
                [random_expr(60, rng=rng, p_let=0.2, p_lit=0.2) for _ in range(50)]
            )
        since = store.version - 10
        reference = scan_reference(store, since)
        stats_before = copy.copy(store.stats)
        memo_before = len(store._memo)

        def refuse(*_args, **_kwargs):
            raise AssertionError("delta emission must not scan or re-hash")

        monkeypatch.setattr(store, "entries", refuse)
        monkeypatch.setattr(store, "_hash_tree", refuse)
        records = delta_records(delta_to_bytes(store, since))
        monkeypatch.undo()

        assert len(records) == 10
        assert all(set(r) == CONTENT_FIELDS for r in records)
        assert content_of(records) == reference
        assert store.stats == stats_before
        assert len(store._memo) == memo_before

    def test_windows_match_scan_reference(self, layout):
        store = make_store(layout)
        for expr in corpus(30, seed=43):
            store.intern(expr)
        store.intern_many(corpus(30, seed=44))
        for since in (0, 1, store.version // 3, store.version - 1, store.version):
            records = delta_records(delta_to_bytes(store, since))
            assert content_of(records) == scan_reference(store, since)

    def test_lru_eviction_keeps_index_bounded(self, layout):
        combiners = HashCombiners(bits=64, seed=7)
        store = (
            ShardedExprStore(combiners, num_shards=4, max_entries=120)
            if layout == "sharded"
            else ExprStore(combiners, max_entries=120)
        )
        for round_ in range(25):
            since = store.version
            batch = corpus(6, seed=100 + round_)
            if round_ % 2:
                store.intern_many(batch)
            else:
                for expr in batch:
                    store.intern(expr)
            assert len(store._version_ids) <= 2 * len(store)
            delta = delta_to_bytes(store, since)
            assert content_of(delta_records(delta)) == scan_reference(store, since)
        assert store.stats.evictions > len(store)
        assert content_of(
            delta_records(delta_to_bytes(store, 0))
        ) == scan_reference(store, 0)

    def test_readmitted_entry_is_emitted_once(self, layout):
        # An LRU replica evicts classes on its own interns; an
        # overlapping delta then re-admits them under their original
        # stamps, out of version order.
        primary = make_store(layout)
        primary.intern_many(corpus(10, seed=51))
        combiners = HashCombiners(bits=64, seed=7)
        replica = (
            ShardedExprStore(combiners, num_shards=4, max_entries=60)
            if layout == "sharded"
            else ExprStore(combiners, max_entries=60)
        )
        apply_delta_bytes(replica, delta_to_bytes(primary, 0))
        replica.intern_many(corpus(10, seed=52))
        assert replica.stats.evictions > 0
        report = apply_delta_bytes(replica, delta_to_bytes(primary, 0))
        assert report["applied"] > 0
        records = delta_records(delta_to_bytes(replica, 0))
        assert content_of(records) == scan_reference(replica, 0)
        assert len({r["i"] for r in records}) == len(records) == len(replica)

    def test_promoted_replica_emits_correct_deltas(self, layout):
        primary = make_store(layout)
        primary.intern_many(corpus(12, seed=61))
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(primary))
        seeded_at = replica.version
        standby, _ = snapshot_from_bytes(snapshot_to_bytes(primary))
        for wave in range(3):
            primary.intern_many(corpus(8, seed=62 + wave))
            # Overlapping windows: every catch-up restarts at the seed.
            apply_delta_bytes(replica, delta_to_bytes(primary, seeded_at))
        assert content_checksum(replica) == content_checksum(primary)
        # The primary is gone: the replica takes writes and ships them.
        promoted_at = replica.version
        replica.intern_many(corpus(8, seed=70))
        for since in (0, seeded_at, promoted_at):
            records = delta_records(delta_to_bytes(replica, since))
            assert content_of(records) == scan_reference(replica, since)
        apply_delta_bytes(standby, delta_to_bytes(replica, seeded_at))
        assert content_checksum(standby) == content_checksum(replica)


class TestAllOrNothing:
    """A delta that contradicts itself or the receiving store is
    refused before the first write."""

    def test_repeated_id_with_another_hash(self, layout):
        store = make_store(layout)
        store.intern_many(corpus(8, seed=81))
        delta = delta_to_bytes(store, 0)
        records = delta_records(delta)
        twin = dict(records[len(records) // 2], h=records[-1]["h"] ^ 1)
        target = make_store(layout)
        before = content_checksum(target)
        with pytest.raises(SnapshotError, match="appears twice"):
            apply_delta_bytes(target, reseal(delta, records + [twin]))
        assert content_checksum(target) == before
        assert target.version == 0 and len(target) == 0

    def test_existing_hash_under_a_new_id(self, layout):
        store = make_store(layout)
        store.intern_many(corpus(8, seed=82))
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(store))
        delta = delta_to_bytes(store, 0)
        victim = delta_records(delta)[-1]
        impostor = dict(victim, i=999)
        before = content_checksum(replica)
        with pytest.raises(SnapshotError, match="already owns"):
            apply_delta_bytes(replica, reseal(delta, [impostor]))
        assert content_checksum(replica) == before
        assert replica.lookup_hash(victim["h"]) == victim["i"]
        assert 999 not in replica

    def test_non_integer_stamp(self, layout):
        store = make_store(layout)
        store.intern_many(corpus(8, seed=84))
        delta = delta_to_bytes(store, 0)
        records = delta_records(delta)
        records[-1]["t"] = str(records[-1]["t"])
        target = make_store(layout)
        with pytest.raises(SnapshotError, match="non-integer"):
            apply_delta_bytes(target, reseal(delta, records))
        assert len(target) == 0 and target.version == 0

    def test_snapshot_with_repeated_record_rejected(self):
        store = make_store("flat")
        store.intern_many(corpus(4, seed=83))
        head, _, body = snapshot_to_bytes(store).partition(b"\n")
        lines = body.splitlines(keepends=True)
        body = b"".join(lines + lines[:1])
        header = json.loads(head)
        header["entries"] += 1
        header["checksum"] = "sha256:" + hashlib.sha256(body).hexdigest()
        data = json.dumps(header).encode() + b"\n" + body
        with pytest.raises(SnapshotError, match="appears twice"):
            snapshot_from_bytes(data)


class TestV1Compatibility:
    """Journals and deltas written as ``repro-store-delta-v1`` (with
    memo summaries) still replay to the recorded content."""

    @pytest.fixture
    def expected(self, layout):
        with open(os.path.join(FIXTURES, "expected.json")) as handle:
            return json.load(handle)[layout]

    def test_v1_delta_applies(self, layout, expected):
        with open(os.path.join(FIXTURES, f"{layout}.delta"), "rb") as handle:
            data = handle.read()
        assert json.loads(data.partition(b"\n")[0])["format"] == (
            "repro-store-delta-v1"
        )
        store = make_store(layout)
        report = apply_delta_bytes(store, data)
        assert report["applied"] == expected["entries"]
        assert store.version == expected["version"]
        assert content_checksum(store) == expected["content_checksum"]
        # Re-emitted as v2, the same content reaches a fresh store.
        again = make_store(layout)
        apply_delta_bytes(again, delta_to_bytes(store, 0))
        assert content_checksum(again) == expected["content_checksum"]

    def test_v1_journal_replays(self, layout, expected, tmp_path):
        directory = str(tmp_path / "wal")
        shutil.copytree(os.path.join(FIXTURES, f"journal-{layout}"), directory)
        store = make_store(layout)
        report = Journal(directory, fsync=False).replay(store)
        assert report["segments"] == expected["segments"]
        assert report["truncated_bytes"] == 0
        assert store.version == expected["version"]
        assert content_checksum(store) == expected["content_checksum"]
