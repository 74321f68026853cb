"""Tests for the ``repro.service`` HTTP server/client pair (ISSUE 5).

Round-trip contract over a live localhost server: remote hashing is
bit-identical to ``alpha_hash_all``, interning lands on server node
ids, and snapshots upload/download over the existing versioned wire
format with entry-count conservation.
"""

import random
import time

import pytest

from repro.api import Session
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.parser import parse
from repro.service import ReproServer, ServiceClient, ServiceError
from repro.store import ShardedExprStore, snapshot_from_bytes


def mixed_corpus(n_items: int, seed: int = 13, size: int = 40):
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_items):
        if corpus and rng.random() < 0.2:
            corpus.append(rng.choice(corpus))
        else:
            corpus.append(random_expr(size, rng=rng, p_let=0.2, p_lit=0.2))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return mixed_corpus(120)


@pytest.fixture(scope="module")
def expected(corpus):
    return [alpha_hash_all(e).root_hash for e in corpus]


@pytest.fixture()
def server():
    with ReproServer(port=0) as live:
        yield live


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


class TestHashEndpoint:
    def test_health(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["backend"] == "ours"
        assert health["bits"] == 64

    def test_remote_hash_bit_identical_to_alpha_hash_all(
        self, client, corpus, expected
    ):
        assert client.hash_corpus(corpus) == expected

    def test_remote_hash_matches_local_session(self, client, corpus):
        assert client.hash_corpus(corpus) == Session().hash_corpus(corpus)

    def test_remote_plan_is_echoed(self, client, corpus):
        hashes, plan = client.hash_corpus(
            corpus, engine="arena-scalar", with_plan=True
        )
        assert plan["engine"] == "arena" and plan["kernel"] == "scalar"
        assert plan["executor"] == "serial"
        assert hashes == client.hash_corpus(corpus, engine="auto")

    def test_alternate_backend(self, client):
        expr = parse(r"\x. x + 7")
        from repro.api import get_backend

        remote = client.hash_corpus([expr], backend="debruijn")
        assert remote == [get_backend("debruijn").hash_all(expr).root_hash]

    def test_deep_expression_survives_the_wire(self, client):
        # A depth-2000 application chain: the flat postorder wire
        # encoding and the snapshot format are both iteration-only.
        from repro.lang.expr import App, Var

        deep = Var("x")
        for _ in range(2000):
            deep = App(Var("f"), deep)
        assert client.hash_corpus([deep]) == [alpha_hash_all(deep).root_hash]


class TestInternAndStats:
    def test_intern_lands_on_server_ids(self, client, corpus):
        ids = client.intern_many(corpus)
        assert len(ids) == len(corpus)
        # Duplicated corpus items collapse to one id.
        assert ids[0] == client.intern_many([corpus[0]])[0]
        stats = client.stats()
        assert stats["entries"] > 0
        assert stats["requests_served"] >= 2

    def test_stats_shape_matches_session_stats(self, client):
        stats = client.stats()
        for key in ("backend", "bits", "seed", "store_enabled", "entries"):
            assert key in stats
        assert stats["store_enabled"] is True


class TestSnapshotEndpoints:
    def test_download_restores_warm_store(self, client, corpus, expected):
        client.intern_many(corpus)
        data = client.fetch_snapshot()
        store, header = snapshot_from_bytes(data)
        assert header["format"] == "repro-store-snapshot-v1"
        assert store.hash_corpus(corpus) == expected

    def test_pull_session(self, client, corpus, expected):
        client.intern_many(corpus)
        local = client.pull_session()
        assert local.hash_corpus(corpus) == expected

    def test_upload_merge_conserves_classes(self, server, client, corpus):
        """upload -> merge -> stats conservation: server entries equal
        the union of both stores' classes, hashes intact."""
        half_a, half_b = corpus[:60], corpus[60:]
        client.intern_many(half_a)
        entries_before = client.stats()["entries"]

        local = Session()
        local.intern_many(half_b)

        reply = client.push_snapshot(local)
        assert reply["merged_classes"] == len(local.store)

        union = Session()
        union.intern_many(corpus)
        assert client.stats()["entries"] == len(union.store)
        assert client.stats()["entries"] >= entries_before

        # The merged store serves both halves bit-identically.
        assert client.hash_corpus(corpus) == [
            alpha_hash_all(e).root_hash for e in corpus
        ]

    def test_upload_raw_bytes(self, client, corpus):
        from repro.store import snapshot_to_bytes

        local = Session()
        local.intern_many(corpus[:10])
        reply = client.push_snapshot(snapshot_to_bytes(local.store))
        assert reply["uploaded_format"] == "repro-store-snapshot-v1"

    def test_bad_snapshot_is_a_client_error(self, client):
        with pytest.raises(ServiceError, match="bad snapshot") as excinfo:
            client.push_snapshot(b"definitely not a snapshot")
        assert excinfo.value.status == 400


class TestShardedServer:
    def test_sharded_store_serves_v2_snapshots(self, corpus, expected):
        with ReproServer(port=0, num_shards=4) as server:
            client = ServiceClient(server.url)
            ids = client.intern_many(corpus)
            data = client.fetch_snapshot()
            store, header = snapshot_from_bytes(data)
            assert header["format"] == "repro-store-snapshot-v2-sharded"
            assert isinstance(store, ShardedExprStore)
            assert store.num_shards == 4
            # Native layout preserves the server's node ids.
            assert store.intern_many(corpus) == ids
            assert store.hash_corpus(corpus) == expected
            # pull_session adopts the sharded store with its config.
            local = client.pull_session()
            assert isinstance(local.store, ShardedExprStore)
            assert local.config.num_shards == 4
            assert local.hash_corpus(corpus) == expected

    def test_entry_bounded_server_intern_stays_clean(self, corpus, expected):
        """A capacity-bounded store evicting mid-batch must not turn the
        intern endpoint into a KeyError/400."""
        with ReproServer(port=0, max_entries=5) as server:
            client = ServiceClient(server.url)
            reply_ids = client.intern_many(corpus)
            assert len(reply_ids) == len(corpus)
            assert client.hash_corpus(corpus) == expected


class TestServerHardening:
    def test_keep_alive_survives_an_unread_error_body(self, server):
        """An error reply sent before the body was read must not leave
        stale bytes on a persistent connection."""
        import http.client
        import json as json_module

        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request(
                "POST",
                "/v1/nope",
                body=b'{"exprs": []}' * 100,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            # The next request on the same client object must get a
            # clean, parseable 200 -- not the leftover body bytes.
            conn.request("GET", "/v1/health")
            follow_up = conn.getresponse()
            assert follow_up.status == 200
            assert json_module.loads(follow_up.read())["ok"] is True
        finally:
            conn.close()


class TestErrorHandling:
    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_malformed_body_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/v1/hash", b"not json", "application/json"
            )
        assert excinfo.value.status == 400

    def test_unknown_backend_400(self, client, corpus):
        with pytest.raises(ServiceError, match="unknown backend") as excinfo:
            client.hash_corpus(corpus[:2], backend="warp")
        assert excinfo.value.status == 400

    def test_storeless_server_409_on_snapshot(self):
        with ReproServer(port=0, use_store=False) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.fetch_snapshot()
            assert excinfo.value.status == 409
            # hashing still works without a store
            expr = parse("a b")
            assert client.hash_corpus([expr]) == [
                alpha_hash_all(expr).root_hash
            ]


class TestMetricsEndpoint:
    def test_metrics_shape_and_rates(self, server, client, corpus):
        client.intern_many(corpus[:20])
        client.hash_corpus(corpus[:20])
        metrics = client.metrics()
        assert metrics["ok"] is True
        assert metrics["uptime_s"] >= 0
        assert metrics["requests_served"] >= 2
        assert metrics["backend"] == "ours"
        assert metrics["kernel"] in ("vec", "scalar")
        assert metrics["shard_id"] is None and metrics["shard_count"] is None
        store = metrics["store"]
        assert store["entries"] > 0
        assert store["version"] == store["entries"]  # eviction-free store
        assert 0 <= store["intern_hit_rate"] <= 1
        assert store["counters"]["misses"] == store["entries"]

    def test_sharded_store_occupancy(self, corpus):
        with ReproServer(port=0, num_shards=4) as server:
            client = ServiceClient(server.url)
            client.intern_many(corpus[:30])
            store = client.metrics()["store"]
            assert store["num_shards"] == 4
            assert len(store["shard_occupancy"]) == 4
            assert sum(store["shard_occupancy"]) == store["entries"]


class TestClientRetry:
    def test_connection_errors_retried_then_surface(self):
        # No listener on this port: each attempt fails fast; the client
        # must give up after its bounded retries, not hang or loop.
        client = ServiceClient(
            "http://127.0.0.1:9", timeout=0.5, retries=2, backoff=0.01
        )
        started = time.monotonic()
        with pytest.raises(ServiceError):
            client.health()
        assert time.monotonic() - started < 10

    def test_4xx_not_retried(self, server):
        # A 404 is the caller's fault: it surfaces immediately even
        # with retries enabled (only 5xx/connection errors replay).
        client = ServiceClient(server.url, retries=3, backoff=0.01)
        started = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/nope")
        assert excinfo.value.status == 404
        assert time.monotonic() - started < 1

    def test_retry_disabled_with_zero(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5, retries=0)
        with pytest.raises(ServiceError):
            client.health()


class TestCleanShutdown:
    def test_close_is_idempotent(self):
        server = ReproServer(port=0).start()
        ServiceClient(server.url).health()
        server.close()
        server.close()  # second close: no hang, no error
        server.shutdown()  # alias shares the guard

    def test_close_without_serving_does_not_hang(self):
        # shutdown() on a ThreadingHTTPServer whose accept loop never
        # ran would block forever; close() must special-case it.
        server = ReproServer(port=0)
        server.close()

    def test_socket_released_for_rebind(self):
        server = ReproServer(port=0).start()
        port = server.port
        server.close()
        rebound = ReproServer(port=port).start()
        try:
            assert ServiceClient(rebound.url).health()["ok"] is True
        finally:
            rebound.close()
