"""Tests for store snapshots (``repro.store.snapshot``) and Session
save/load, including the CLI ``repro session`` verb."""

import json

import pytest

from repro.api import Session
from repro.cli import main
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.alpha import alpha_equivalent
from repro.lang.expr import Lit
from repro.lang.parser import parse
from repro.store import ExprStore, SnapshotError, read_snapshot, write_snapshot


@pytest.fixture()
def snap_path(tmp_path):
    return str(tmp_path / "store.snap")


class TestStoreRoundTrip:
    def test_round_trip_1k_corpus_bit_identical(self, snap_path):
        """Acceptance: 1k random expressions reload with bit-identical
        root hashes and identical stats."""
        corpus = [
            random_expr(10 + (i % 40), seed=i, p_let=0.2) for i in range(1000)
        ]
        session = Session()
        roots = session.hash_corpus(corpus)
        session.intern_many(corpus)
        session.save(snap_path)

        loaded = Session.load(snap_path)
        assert loaded.store.stats.as_dict() == session.store.stats.as_dict()
        assert len(loaded.store) == len(session.store)
        assert loaded.hash_corpus(corpus) == roots
        # every class saved is findable without re-interning
        assert all(loaded.store.lookup_hash(h) is not None for h in roots)
        # and interning again creates nothing new
        before = len(loaded.store)
        loaded.intern_many(corpus)
        assert len(loaded.store) == before

    def test_canonical_trees_survive(self, snap_path):
        store = ExprStore()
        node_id = store.intern(parse(r"\x. x + (let y = 2 in y * x)"))
        original = store.expr_of(node_id)
        store.save(snap_path)
        loaded = ExprStore.load(snap_path)
        assert alpha_equivalent(loaded.expr_of(node_id), original)
        assert loaded.hash_of(node_id) == store.hash_of(node_id)

    def test_literal_kinds_round_trip(self, snap_path):
        store = ExprStore()
        exprs = [
            parse(r"\x. x + 7"),
            parse('"s"'),
        ]
        ids = [store.intern(e) for e in exprs]
        bool_id = store.intern(Lit(True))
        float_id = store.intern(Lit(2.5))
        int_id = store.intern(Lit(1))
        store.save(snap_path)
        loaded = ExprStore.load(snap_path)
        for e, i in zip(exprs, ids):
            assert loaded.intern(e) == i
        assert loaded.expr_of(bool_id).value is True
        assert loaded.expr_of(float_id).value == 2.5
        assert loaded.expr_of(int_id).value == 1
        # bool/int stay distinct classes after the round trip
        assert bool_id != int_id

    def test_memo_is_warm_after_load(self, snap_path):
        store = ExprStore()
        expr = random_expr(300, seed=7)
        store.intern(expr)
        root_hash = store.hash_expr(expr)  # memo hit, counted before save
        store.save(snap_path)
        loaded = ExprStore.load(snap_path)
        # hashing the canonical representative is a pure memo hit
        canonical = loaded.expr_of(loaded.lookup_hash(root_hash))
        assert loaded.hash_expr(canonical) == root_hash
        assert loaded.stats.hashed_nodes == store.stats.hashed_nodes
        assert loaded.stats.memo_hits == store.stats.memo_hits + 1

    def test_save_does_not_disturb_stats(self, snap_path):
        store = ExprStore()
        store.intern(random_expr(100, seed=1))
        store.clear_memo()  # force the save-time memo backfill
        before = store.stats.as_dict()
        store.save(snap_path)
        assert store.stats.as_dict() == before
        loaded = ExprStore.load(snap_path)
        assert loaded.stats.as_dict() == before

    def test_save_does_not_disturb_memo(self, snap_path):
        # the backfill must be invisible: same memoised objects before
        # and after save, even when a small memo_limit would otherwise
        # trigger a wholesale flush of legitimately warm records
        store = ExprStore(memo_limit=50)
        store.intern(random_expr(200, seed=3))
        store.clear_memo()
        warm = random_expr(20, seed=4)
        store.hash_expr(warm)  # a few warm records, well under the limit
        before = set(store._memo)
        store.save(snap_path)
        assert set(store._memo) == before

    def test_lru_capacity_mode_survives(self, snap_path):
        store = ExprStore(max_entries=64)
        for i in range(30):
            store.intern(random_expr(12, seed=i))
        store.save(snap_path)
        loaded = ExprStore.load(snap_path)
        assert loaded.max_entries == 64
        assert loaded.memo_limit == store.memo_limit
        assert len(loaded) == len(store)

    def test_meta_rides_along(self, snap_path):
        store = ExprStore()
        store.intern(parse("a b"))
        write_snapshot(store, snap_path, meta={"backend": "ours", "tag": 3})
        _loaded, header = read_snapshot(snap_path)
        assert header["meta"] == {"backend": "ours", "tag": 3}


class TestSnapshotIntegrity:
    def _saved(self, path):
        store = ExprStore()
        store.intern(random_expr(60, seed=0))
        store.save(path)
        return store

    def test_tampered_body_fails_checksum(self, snap_path):
        self._saved(snap_path)
        with open(snap_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[1] = lines[1].replace(":", ";", 1)
        with open(snap_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(snap_path)

    def test_truncated_body_fails(self, snap_path):
        self._saved(snap_path)
        with open(snap_path, "rb") as handle:
            data = handle.read()
        with open(snap_path, "wb") as handle:
            handle.write(data[: int(len(data) * 0.8)])
        with pytest.raises(SnapshotError):
            read_snapshot(snap_path)

    def test_wrong_format_rejected(self, snap_path):
        with open(snap_path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "something-else"}\n')
        with pytest.raises(SnapshotError, match="not a repro-store-snapshot"):
            read_snapshot(snap_path)

    def test_garbage_header_rejected(self, snap_path):
        with open(snap_path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        with pytest.raises(SnapshotError, match="header"):
            read_snapshot(snap_path)

    def test_malformed_record_with_valid_checksum_rejected(self, snap_path):
        # schema breaches that slip past the checksum (e.g. a dangling
        # child id with a recomputed checksum) must fail as
        # SnapshotError, not leak a bare KeyError
        import hashlib

        body = (
            json.dumps(
                {"i": 0, "h": 1, "k": "App", "z": 3, "c": [998, 999],
                 "p": None, "s": 1, "v": 1, "m": {}},
                separators=(",", ":"), sort_keys=True,
            )
            + "\n"
        ).encode("utf-8")
        header = {
            "format": "repro-store-snapshot-v1",
            "bits": 64, "seed": 1, "next_id": 1, "entries": 1,
            "max_entries": None, "memo_limit": None, "stats": {},
            "meta": {},
            "checksum": "sha256:" + hashlib.sha256(body).hexdigest(),
        }
        with open(snap_path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(SnapshotError, match="malformed snapshot entry"):
            read_snapshot(snap_path)

    def test_header_missing_required_field_rejected(self, snap_path):
        # a well-formed header that lacks e.g. "bits" must fail as
        # SnapshotError, not leak a KeyError
        import hashlib

        header = {
            "format": "repro-store-snapshot-v1",
            "checksum": "sha256:" + hashlib.sha256(b"").hexdigest(),
        }
        with open(snap_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
        with pytest.raises(SnapshotError, match="missing required"):
            read_snapshot(snap_path)


class TestSessionLoad:
    def test_backend_persisted_and_overridable(self, snap_path):
        session = Session()
        session.intern(parse("a b"))
        session.save(snap_path)
        assert Session.load(snap_path).backend.name == "ours"
        assert Session.load(snap_path, backend="ours_lazy").backend.name == (
            "ours_lazy"
        )

    def test_bits_and_seed_persisted(self, snap_path):
        session = Session(bits=32, seed=99)
        expr = parse(r"\x. x + 7")
        value = session.hash(expr)
        session.intern(expr)
        session.save(snap_path)
        loaded = Session.load(snap_path)
        assert loaded.combiners.bits == 32
        assert loaded.hash(parse(r"\y. y + 7")) == value


class TestSessionCLI:
    @pytest.fixture()
    def corpus_files(self, tmp_path):
        a = tmp_path / "a.lam"
        b = tmp_path / "b.lam"
        a.write_text(r"\x. x + 7")
        b.write_text(r"\y. y + 7")
        return [str(a), str(b)]

    def test_session_emits_json_records(self, capsys, corpus_files):
        assert main(["session", *corpus_files]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert len(records) == 2
        # alpha-equivalent corpus: same hash, same canonical node id
        assert records[0]["hash"] == records[1]["hash"]
        assert records[0]["node_id"] == records[1]["node_id"]
        # "known" means present before this invocation's corpus was
        # added, so both copies of the fresh class report False
        assert records[0]["known"] is False and records[1]["known"] is False

    def test_session_save_load_check(self, capsys, corpus_files, tmp_path):
        snap = str(tmp_path / "session.snap")
        assert main(["session", *corpus_files, "--save", snap]) == 0
        capsys.readouterr()
        assert main(["session", "--load", snap, *corpus_files, "--check"]) == 0
        out = capsys.readouterr()
        for line in out.out.splitlines():
            assert json.loads(line)["known"] is True

    def test_session_check_fails_on_unknown_expr(self, capsys, corpus_files, tmp_path):
        snap = str(tmp_path / "session.snap")
        assert main(["session", corpus_files[0], "--save", snap]) == 0
        other = tmp_path / "other.lam"
        other.write_text("a (b c)")
        assert main(
            ["session", "--load", snap, str(other), "--check"]
        ) == 1
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_session_check_counts_all_copies_of_a_missing_class(
        self, capsys, corpus_files, tmp_path
    ):
        # regression: known flags are computed before any interning, so
        # the second alpha-equivalent copy of a class absent from the
        # snapshot must also report known=false
        snap = str(tmp_path / "session.snap")
        known_file = tmp_path / "known.lam"
        known_file.write_text("k1 k2")
        assert main(["session", str(known_file), "--save", snap]) == 0
        capsys.readouterr()
        assert main(
            ["session", "--load", snap, *corpus_files, "--check"]
        ) == 1
        out = capsys.readouterr()
        records = [json.loads(line) for line in out.out.splitlines()]
        assert [r["known"] for r in records] == [False, False]
        assert "2 expression(s) not present" in out.err

    def test_session_hashes_match_hash_command(self, capsys, corpus_files):
        main(["session", corpus_files[0]])
        session_hash = json.loads(capsys.readouterr().out.splitlines()[0])["hash"]
        main(["hash", corpus_files[0]])
        assert capsys.readouterr().out.strip() == session_hash

    def test_session_stats_flag(self, capsys, corpus_files):
        assert main(["session", *corpus_files, "--stats"]) == 0
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert last["backend"] == "ours" and last["entries"] > 0

    def test_session_backend_flag(self, capsys, corpus_files):
        assert main(["session", *corpus_files, "--backend", "structural"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert all(r["backend"] == "structural" for r in records)

    def test_check_works_with_non_default_backend(self, capsys, corpus_files, tmp_path):
        # regression: known/--check must be decided on the canonical
        # store hash, not the selected backend's hash
        snap = str(tmp_path / "session.snap")
        assert main(["session", *corpus_files, "--save", snap]) == 0
        capsys.readouterr()
        assert main(
            ["session", "--load", snap, "--backend", "ours_lazy",
             *corpus_files, "--check"]
        ) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert all(r["known"] is True for r in records)
        assert all(r["backend"] == "ours_lazy" for r in records)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--no-store", "--save", "x.snap"],
            ["--no-store", "--check"],
            ["--check"],  # without --load
            ["--load", "x.snap", "--bits", "32"],
            ["--load", "x.snap", "--no-store"],
            ["--load", "x.snap", "--seed", "1"],
            ["--load", "x.snap", "--max-entries", "4"],
        ],
    )
    def test_conflicting_flags_rejected(self, capsys, corpus_files, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["session", *corpus_files, *argv])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestRetiredEngineSnapshots:
    """Snapshots saved by ``Session(engine="tree")`` (or ``"arena"``)
    before those names were retired must keep loading, as ``auto``; so
    must snapshots whose config still names a pool flavour
    (``parallel_mode``) or a pool size (``workers``), both ignored."""

    @staticmethod
    def _legacy_meta(
        engine: str, parallel_mode: str = "process", workers: int = 1
    ) -> dict:
        # Byte-for-byte the meta block Session.save wrote for such a
        # session: the backend name plus the asdict() of its config.
        return {
            "backend": "ours",
            "config": {
                "backend": "ours",
                "bits": 64,
                "seed": None,
                "use_store": True,
                "max_entries": None,
                "memo_limit": None,
                "workers": workers,
                "parallel_mode": parallel_mode,
                "num_shards": None,
                "engine": engine,
            },
        }

    @pytest.mark.parametrize("engine", ["tree", "arena"])
    def test_load_adopts_retired_engine_as_auto(self, tmp_path, engine):
        from repro.store import snapshot_to_bytes

        corpus = [random_expr(30, seed=i) for i in range(8)]
        store = ExprStore()
        ids = store.intern_many(corpus)
        path = str(tmp_path / "legacy.snap")
        write_snapshot(store, path, meta=self._legacy_meta(engine))
        header, = [json.loads(open(path, "rb").readline())]
        assert header["meta"]["config"]["engine"] == engine

        loaded = Session.load(path)
        assert loaded.config.engine == "auto"
        assert loaded.intern_many(corpus) == ids
        assert loaded.hash_corpus(corpus) == [
            alpha_hash_all(e).root_hash for e in corpus
        ]
        data = snapshot_to_bytes(store, meta=self._legacy_meta(engine))
        assert Session.from_snapshot_bytes(data).config.engine == "auto"

    @staticmethod
    def _assert_every_load_path_ignores(tmp_path, meta, retired_key):
        """Load ``meta`` through ``Session.load``, ``from_snapshot_bytes``
        and a journal checkpoint: same ids and hashes each time, and
        ``retired_key`` is not config any more."""
        from repro.store import Journal, snapshot_to_bytes

        corpus = [random_expr(30, seed=i) for i in range(8)]
        store = ExprStore()
        ids = store.intern_many(corpus)
        expected = [alpha_hash_all(e).root_hash for e in corpus]

        path = str(tmp_path / "legacy.snap")
        write_snapshot(store, path, meta=meta)
        data = snapshot_to_bytes(store, meta=meta)
        # Journal checkpoint recovery: the server adopts the checkpoint
        # through from_snapshot_bytes, then replays the tail.
        journal = Journal(str(tmp_path / "journal"), fsync=False)
        journal.checkpoint(store, meta=meta)
        journal.close()
        recovered_journal = Journal(str(tmp_path / "journal"), fsync=False)
        checkpoint = recovered_journal.load_checkpoint_bytes()
        recovered_journal.close()

        for loaded in (
            Session.load(path),
            Session.from_snapshot_bytes(data),
            Session.from_snapshot_bytes(checkpoint),
        ):
            assert not hasattr(loaded.config, retired_key)
            assert retired_key not in loaded.stats()
            assert loaded.intern_many(corpus) == ids
            assert loaded.hash_corpus(corpus) == expected

    @pytest.mark.parametrize(
        "parallel_mode", ["process", "thread", "spawn", "fork"]
    )
    def test_saved_parallel_mode_is_ignored(self, tmp_path, parallel_mode):
        meta = self._legacy_meta("auto", parallel_mode)
        self._assert_every_load_path_ignores(tmp_path, meta, "parallel_mode")

    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_saved_workers_is_ignored(self, tmp_path, workers):
        meta = self._legacy_meta("auto", workers=workers)
        self._assert_every_load_path_ignores(tmp_path, meta, "workers")
