"""Bloom filter, rate-limiter state machine, robots gate, checkpoint store."""

import math

import numpy as np
import pyarrow as pa
import pytest

from crawl4ai_ray.hashing import h64
from crawl4ai_ray.state.bloom import BloomFilter
from crawl4ai_ray.state.checkpoint import CheckpointStore
from crawl4ai_ray.state.politeness import RateLimiterState, RobotsGate


def test_bloom_no_false_negatives():
    bf = BloomFilter(capacity=10_000, error_rate=0.01)
    keys = [f"http://h{i % 50}.test/p/{i}" for i in range(10_000)]
    bf.add_batch(keys)
    assert bf.contains_batch(keys).all()


def test_bloom_false_positive_budget():
    bf = BloomFilter(capacity=10_000, error_rate=0.01)
    bf.add_batch([f"in-{i}" for i in range(10_000)])
    fp = bf.contains_batch([f"out-{i}" for i in range(20_000)]).mean()
    assert fp < 0.03  # budget p=0.01 with slack


def test_bloom_add_batch_reports_dups():
    bf = BloomFilter(capacity=1000)
    first = bf.add_batch(["a", "b", "c"])
    assert not first.any()
    second = bf.add_batch(["a", "b", "d"])
    assert second.tolist() == [True, True, False]


def test_bloom_count_is_independent_of_call_split():
    """A key repeated within one add_batch call counts once, so the count
    (the shards' ``seen_size``) is the same however the keys are chunked —
    in scale mode the chunking follows task completion order."""
    keys = [f"k{i % 40}" for i in range(100)]
    one = BloomFilter(capacity=1000)
    one.add_batch(keys)
    split = BloomFilter(capacity=1000)
    for i in range(0, 100, 7):
        split.add_batch(keys[i:i + 7])
    assert one.count == split.count == 40
    assert one.add_batch(["k1", "new", "new"]).tolist() == [True, False, False]
    assert one.count == 41


def test_bloom_serialization_roundtrip():
    bf = BloomFilter(capacity=1000)
    bf.add_batch([f"k{i}" for i in range(500)])
    bf2 = BloomFilter.from_bytes(bf.to_bytes(), 1000, 0.01, bf.count)
    assert bf2.contains_batch([f"k{i}" for i in range(500)]).all()
    assert bf2.num_hashes == bf.num_hashes


def test_rate_limiter_serializes_per_host():
    rl = RateLimiterState(base_delay=(2.0, 2.0), seed=1)
    t0 = 1000.0
    s1 = rl.next_allowed("h.test", t0)
    s2 = rl.next_allowed("h.test", t0)
    s3 = rl.next_allowed("h.test", t0)
    assert s1 == t0
    assert s2 == pytest.approx(t0 + 2.0)
    assert s3 == pytest.approx(t0 + 4.0)
    # independent host unaffected
    assert rl.next_allowed("other.test", t0) == t0


def test_rate_limiter_backoff_and_decay():
    rl = RateLimiterState(base_delay=(1.0, 1.0), max_delay=60.0, max_retries=3, seed=1)
    rl.next_allowed("h.test", 0.0)
    d0 = rl.hosts["h.test"].current_delay
    assert d0 == 1.0
    assert rl.update_delay("h.test", 429)
    d1 = rl.hosts["h.test"].current_delay
    assert 2 * 0.75 * d0 <= d1 <= 2 * 1.25 * d0
    # success decays ×0.75 floored at base
    assert rl.update_delay("h.test", 200)
    assert rl.hosts["h.test"].current_delay == max(1.0, d1 * 0.75)
    assert rl.hosts["h.test"].fail_count == 0
    # retries exhausted after max_retries+1 consecutive limit codes
    for i in range(3):
        assert rl.update_delay("h.test", 503)
    assert not rl.update_delay("h.test", 503)


def test_rate_limiter_cap():
    rl = RateLimiterState(base_delay=(50.0, 50.0), max_delay=60.0, max_retries=99, seed=1)
    rl.next_allowed("h.test", 0.0)
    for _ in range(5):
        rl.update_delay("h.test", 429)
    assert rl.hosts["h.test"].current_delay <= 60.0


def test_robots_gate():
    gate = RobotsGate({"a.test": "User-agent: *\nDisallow: /private/\n"})
    assert gate.can_fetch("a.test", "http://a.test/public/x")
    assert not gate.can_fetch("a.test", "http://a.test/private/x")
    # missing robots ⇒ allow-all (error-allows semantics, utils.py:348-352)
    assert gate.can_fetch("b.test", "http://b.test/anything")


def test_checkpoint_store(tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt"))
    assert store.read_manifest() is None
    t = pa.table({"url": ["a", "b"], "epoch": [0, 0]})
    store.write_epoch_table("seen", 0, t)
    store.write_epoch_table("seen", 1, pa.table({"url": ["c"], "epoch": [1]}))
    full = store.read_group("seen")
    assert full.num_rows == 3
    assert store.read_group("seen", upto_epoch=0).num_rows == 2
    store.write_manifest({"epoch": 1, "pages_crawled": 3})
    assert store.read_manifest()["epoch"] == 1
    d = store.docs_epoch_dir(0)
    assert "epoch=0" in d
    assert store.docs_dirs() == [d]


def test_checkpoint_store_reads_epochs_in_numeric_order(tmp_path):
    # a crawl of 10+ epochs: a name sort would put epoch=10 before epoch=2
    import pyarrow.parquet as pq

    store = CheckpointStore(str(tmp_path / "ckpt"))
    for epoch in (10, 2):
        d = store.docs_epoch_dir(epoch)
        pq.write_table(pa.table({"epoch": [epoch]}), f"{d}/part-0.parquet")
        store.write_epoch_table("metrics", epoch, pa.table({"epoch": [epoch]}))
    assert [pq.read_table(f).column("epoch")[0].as_py()
            for f in store.docs_files()] == [2, 10]
    assert store.read_group("metrics").column("epoch").to_pylist() == [2, 10]
    assert store.read_group("metrics", upto_epoch=9).column("epoch").to_pylist() == [2]


def test_bloom_shard_within_batch_dedup():
    """Regression: bloom-only check_and_add must not report duplicate URLs
    within one call as fresh (add_batch tests before setting bits)."""
    from crawl4ai_ray.stages.hostshard import HostShardState

    shard = HostShardState(0, capacity=1000, error_rate=0.01, exact=False)  # bloom only
    fresh = shard.check_and_add(["a", "b", "a", "c", "b"])
    assert fresh.tolist() == [True, True, False, True, False]
    fresh2 = shard.check_and_add(["a", "d"])
    assert fresh2.tolist() == [False, True]


@pytest.mark.parametrize("num_shards,num_actors", [(5, 2), (7, 3), (4, 3)])
def test_route_places_each_row_once_under_its_shard_and_actor(num_shards, num_actors):
    """``route`` without Ray, with shard counts the actor count does not
    divide: every row index appears exactly once, under shard
    ``h64(host) % num_shards``, and that shard under actor
    ``sid % num_actors``."""
    from crawl4ai_ray.stages.hostshard import route

    # repeated hosts, so several rows share a shard
    hosts = [f"h{i % 23}.test" for i in range(200)]
    out = route(hosts, num_shards, num_actors)
    placed = []
    for actor, by_sid in out.items():
        assert 0 <= actor < num_actors
        for sid, idx in by_sid.items():
            assert sid % num_actors == actor
            assert idx == sorted(idx)
            for i in idx:
                assert h64(hosts[i]) % num_shards == sid
            placed.extend(idx)
    assert sorted(placed) == list(range(len(hosts)))
    # the 23 hosts cover more than one actor, so the split is exercised
    assert len(out) > 1
    assert route([], num_shards, num_actors) == {}


def test_sharded_frontier_heap_global_order(ray_session):
    """K-way merge over per-shard heaps delivers global (score desc, depth,
    url) order with bounded driver rows; crawled set equals a single-heap
    reference."""
    import random

    from crawl4ai_ray.stages.hostshard import HostShardPool

    rng = random.Random(7)
    rows = [
        {
            "url": f"http://site{i % 5}.test/p/{i}",
            "host": f"site{i % 5}.test",
            "score": round(rng.random() * 10, 3),
            "depth": rng.randrange(4),
            "parent_url": None,
        }
        for i in range(200)
    ]
    cols = [[r[c] for r in rows] for c in ("url", "host", "score", "depth", "parent_url")]
    heap = HostShardPool(3)
    try:
        assert heap.push_batch(*cols) == 200
        # duplicate pushes are ignored while queued
        assert heap.push_batch(*(c[:10] for c in cols)) == 0
        assert sum(heap.heap_sizes()) == 200

        got = []
        while True:
            batch = heap.pop_global_batch(16)
            if not batch["url"]:
                break
            got.extend(batch["url"])
        want = sorted(rows, key=lambda r: (-r["score"], r["depth"], r["url"]))
        assert got == [r["url"] for r in want]
        assert heap.heap_sizes() == [0, 0, 0]  # every logical shard's heap
    finally:
        heap.shutdown()


def test_reports_to_a_shut_down_pool_never_reach_the_next_pool(ray_session):
    """A fetch task of an aborted run can call its pool's actors after its
    engine's shutdown().  The call must fail, not land in the state of the
    next pool."""
    import ray

    from crawl4ai_ray.stages.hostshard import HostShardPool, submit

    hosts = [f"site{i}.test" for i in range(12)]
    urls = [f"http://{h}/" for h in hosts]
    first = HostShardPool(3)
    first.total_size()  # the actor is up
    stale = list(first.shards)
    first.shutdown()
    second = HostShardPool(3)
    try:
        refs = [ref for _, ref in submit(stale, 3, "report", hosts, hosts, [200] * len(hosts))]
        refs += [ref for _, ref in submit(stale, 3, "add", hosts, urls)]
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(refs)
        second.total_size()  # the actor is up: seen_stats asks it
        assert second.seen_stats() == [(0, 0.0)] * 3
    finally:
        second.shutdown()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "bloom"])
def test_sparse_mirror_answers_like_the_shard(exact):
    """The pool's driver mirror — a ``HostShardState`` with ``sparse=True``
    — gives the answers, new-key counts, sizes and false-positive estimates
    of the state an actor holds, over rounds with repeats inside a call and
    across calls; in bloom mode it holds no bit array, only the positions
    set so far."""
    import random

    from crawl4ai_ray.stages.hostshard import HostShardState
    from crawl4ai_ray.state.bloom import SparseBloomFilter

    kw = dict(capacity=2_000, error_rate=0.01, exact=exact)
    dense, mirror = HostShardState(0, **kw), HostShardState(0, sparse=True, **kw)
    rng = random.Random(3)
    for r in range(30):
        urls = [f"http://h.test/p/{rng.randrange(400)}" for _ in range(rng.randrange(60))]
        method = ("check_and_add", "add", "contains")[r % 3]
        want, got = getattr(dense, method)(urls), getattr(mirror, method)(urls)
        assert np.array_equal(want, got), (r, method)
        assert dense.seen_stats() == mirror.seen_stats()
    assert dense.size() > 100
    if not exact:
        assert isinstance(mirror.filter, SparseBloomFilter)
        assert mirror.filter._bits.size <= mirror.filter.num_hashes * dense.size()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "bloom"])
def test_pool_mirror_serves_seen_rounds_while_the_actor_boots(ray_session, exact):
    """While the actor boots, the pool answers ``check_and_add``, ``add``
    and ``contains`` from its mirror without waiting, and sends each update
    to the actor.  Once the actor has replied, the pool asks it, and it
    holds the state and answers of a shard that saw every call."""
    from crawl4ai_ray.stages.hostshard import HostShardPool, HostShardState

    from slow_boot import slow_boot_robots

    kw = dict(capacity_per_shard=5_000, error_rate=0.01, exact=exact)
    pool = HostShardPool(3, robots_bodies=slow_boot_robots(None, 3.0), **kw)
    ref = [HostShardState(sid, capacity=5_000, error_rate=0.01, exact=exact)
           for sid in range(3)]

    def _want(method, urls, hosts):
        out = np.zeros(len(urls), dtype=bool) if method != "add" else 0
        for sid in range(3):
            idx = [i for i, h in enumerate(hosts) if h64(h) % 3 == sid]
            res = getattr(ref[sid], method)([urls[i] for i in idx])
            if method == "add":
                out += res
            else:
                out[idx] = res
        return out

    def _round(r):
        hosts = [f"site{(r * 7 + i) % 11}.test" for i in range(40)]
        urls = [f"http://{h}/p/{(r + i) % 30}" for i, h in enumerate(hosts)]
        for method in ("check_and_add", "contains", "add"):
            want = _want(method, urls, hosts)
            got = getattr(pool, method)(urls, hosts)
            assert np.array_equal(got, want), (r, method)
        assert pool.seen_stats() == [st.seen_stats() for st in ref]

    try:
        for r in range(4):
            _round(r)
        assert pool.actor_ready_s() is None  # the mirror served every round
        assert pool.wait_s < 0.5
        assert pool.total_size() == sum(st.size() for st in ref)
        assert pool.actor_ready_s() > 3.0
        assert pool._mirror is None
        for r in range(4, 8):
            _round(r)
        if exact:
            assert pool.dump_all() == [st.dump() for st in ref]
    finally:
        pool.shutdown()


def test_pool_raises_when_the_booting_actor_died(ray_session):
    """An actor killed before it replied to its ready call: a pool call that
    the mirror could serve raises the actor's error instead."""
    import time

    import ray

    from crawl4ai_ray.stages.hostshard import HostShardPool

    from slow_boot import slow_boot_robots

    pool = HostShardPool(2, robots_bodies=slow_boot_robots(None, 5.0))
    try:
        assert pool.check_and_add(["http://a.test/"], ["a.test"]).tolist() == [True]
        ray.kill(pool.shards[0])
        deadline = time.time() + 30
        with pytest.raises(ray.exceptions.RayActorError):
            while time.time() < deadline:
                pool.check_and_add(["http://b.test/"], ["b.test"])
                time.sleep(0.05)
    finally:
        pool.shutdown()


def test_pool_rejects_a_bad_filter_argument_before_starting_actors(monkeypatch):
    """The driver mirror is built first, so an unsatisfiable bloom argument
    raises in the constructor and no actor starts."""
    from crawl4ai_ray.stages import hostshard

    def no_actor(*args, **kwargs):
        raise AssertionError("an actor was started")

    monkeypatch.setattr(hostshard.HostShard, "options", no_actor)
    with pytest.raises(ValueError):
        hostshard.HostShardPool(2, error_rate=0.0, exact=False)


# ------------------------------------------------------------ proxy rotation
class TestProxyRotation:
    def test_proxy_config_parsing(self):
        from crawl4ai_ray.state.proxy import ProxyConfig

        p4 = ProxyConfig.from_string("10.0.0.1:8080:u:pw")
        assert (p4.server, p4.username, p4.password, p4.ip) == (
            "http://10.0.0.1:8080", "u", "pw", "10.0.0.1")
        p2 = ProxyConfig.from_string("10.0.0.2:3128")
        assert (p2.server, p2.username, p2.ip) == ("http://10.0.0.2:3128", None, "10.0.0.2")
        import pytest
        with pytest.raises(ValueError):
            ProxyConfig.from_string("bad")
        assert ProxyConfig("http://1.2.3.4:80").ip == "1.2.3.4"
        assert ProxyConfig("1.2.3.4:80").ip == "1.2.3.4"
        c = p4.clone(password="new")
        assert c.password == "new" and c.server == p4.server

    def test_proxy_config_from_env(self, monkeypatch):
        from crawl4ai_ray.state.proxy import ProxyConfig

        monkeypatch.setenv("PROXIES", "1.1.1.1:80,2.2.2.2:81:u:p,")
        ps = ProxyConfig.from_env()
        assert [p.ip for p in ps] == ["1.1.1.1", "2.2.2.2"]

    def test_parity_with_reference_proxy_config(self):
        import importlib.util
        import os

        ref_path = "/root/reference/crawl4ai/proxy_strategy.py"
        if not os.path.exists(ref_path):
            import pytest
            pytest.skip("reference not present")
        spec = importlib.util.spec_from_file_location("ref_proxy", ref_path)
        ref = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ref)
        from crawl4ai_ray.state.proxy import ProxyConfig

        for s in ["9.9.9.9:9999:alice:s3cret", "8.8.8.8:53"]:
            a, b = ProxyConfig.from_string(s), ref.ProxyConfig.from_string(s)
            assert a.to_dict() == b.to_dict()

    def test_round_robin_and_sticky_sessions(self):
        from crawl4ai_ray.state.proxy import ProxyConfig, RoundRobinProxyStrategy

        now = [1000.0]
        ps = [ProxyConfig.from_string(f"10.0.0.{i}:80") for i in range(3)]
        st = RoundRobinProxyStrategy(ps, clock=lambda: now[0])
        assert [st.get_next_proxy().ip for _ in range(4)] == [
            "10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.0"]
        # sticky: same session -> same proxy; release -> new acquisition
        a = st.get_proxy_for_session("host-a", ttl=50)
        assert st.get_proxy_for_session("host-a").server == a.server
        assert st.get_session_proxy("host-a").server == a.server
        assert "host-a" in st.get_active_sessions()
        # TTL expiry
        now[0] += 60
        assert st.get_session_proxy("host-a") is None
        assert "host-a" not in st.get_active_sessions()
        assert st.cleanup_expired_sessions() == 1
        b = st.get_proxy_for_session("host-a")
        assert b is not None
        st.release_session("host-a")
        assert st.get_session_proxy("host-a") is None

    def test_failure_aware_quarantine(self):
        from crawl4ai_ray.state.proxy import FailureAwareProxyStrategy, ProxyConfig

        now = [0.0]
        ps = [ProxyConfig.from_string(f"10.0.1.{i}:80") for i in range(2)]
        st = FailureAwareProxyStrategy(ps, max_failures=2, cooldown=30,
                                       clock=lambda: now[0])
        bad = ps[0]
        st.record_result(bad, False)
        st.record_result(bad, False)  # benched now
        picks = {st.get_next_proxy().ip for _ in range(4)}
        assert picks == {"10.0.1.1"}
        now[0] += 31  # cooldown over
        picks = {st.get_next_proxy().ip for _ in range(4)}
        assert picks == {"10.0.1.0", "10.0.1.1"}
        # whole pool benched -> degrade to rotation, never None
        for p in ps:
            st.record_result(p, False)
            st.record_result(p, False)
        assert st.get_next_proxy() is not None
        # success resets failures
        st.record_result(bad, True)
        now[0] += 31
        assert st.get_next_proxy() is not None

    def test_fetch_stage_proxy_hook(self):
        import pyarrow as pa

        from crawl4ai_ray.stages.fetch import FetchStage
        from crawl4ai_ray.state.proxy import ProxyConfig, RoundRobinProxyStrategy

        class RecordingTransport:
            def __init__(self):
                self.calls = []

            def fetch(self, url):  # pragma: no cover - fetch_via used
                return (200, "<html></html>")

            def fetch_via(self, url, proxy):
                self.calls.append((url, proxy.server if proxy else None))
                return (200, f"<html><body>{url}</body></html>")

        tr = RecordingTransport()
        st = RoundRobinProxyStrategy(
            [ProxyConfig.from_string(f"10.9.0.{i}:80") for i in range(2)]
        )
        stage = FetchStage(tr, max_sessions=1, proxy_strategy=st)
        urls = [f"http://h{i % 2}.test/p/{i}" for i in range(6)]
        batch = pa.table({"url": pa.array(urls)})
        out = stage(batch)
        assert out.column("success").to_pylist() == [True] * 6
        by_host = {}
        for url, server in tr.calls:
            host = url.split("/")[2]
            by_host.setdefault(host, set()).add(server)
        # sticky per host: each host always rode the same proxy
        assert all(len(v) == 1 for v in by_host.values())
        assert by_host["h0.test"] != by_host["h1.test"]


def test_proxy_rotation_thread_safety_no_deadlock():
    """Round-4 ADVICE: rotation + bench-check + session reads are locked
    (FetchStage drives the strategy from a per-actor thread pool).  The
    sticky-session path calls the rotation step while holding the lock —
    this guards the non-reentrancy regression — and hammering from many
    threads must neither deadlock nor lose the round-robin invariant."""
    import threading as _t

    from crawl4ai_ray.state.proxy import (
        FailureAwareProxyStrategy,
        ProxyConfig,
        RoundRobinProxyStrategy,
    )

    for cls in (RoundRobinProxyStrategy, FailureAwareProxyStrategy):
        strat = cls([ProxyConfig(f"http://10.0.0.{i}:80") for i in range(4)])
        got = []
        errs = []

        def _worker(k):
            try:
                for i in range(50):
                    p = strat.get_proxy_for_session(f"h{k}-{i % 7}")
                    strat.record_result(p, ok=(i % 3 != 0))
                    strat.get_session_proxy(f"h{k}-{i % 7}")
                    strat.get_active_sessions()
                    got.append(strat.get_next_proxy().server)
            except Exception as e:  # pragma: no cover
                errs.append(e)

        threads = [_t.Thread(target=_worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "deadlocked"
        assert not errs
        assert len(got) == 8 * 50
