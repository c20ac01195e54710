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
    heap = HostShardPool(3)
    try:
        assert heap.push_batch(rows) == 200
        # duplicate pushes are ignored while queued
        assert heap.push_batch(rows[:10]) == 0
        assert sum(heap.heap_sizes()) == 200

        got = []
        while True:
            batch = heap.pop_global_batch(16)
            if not batch:
                break
            got.extend(batch)
        want = sorted(rows, key=lambda r: (-r["score"], r["depth"], r["url"]))
        assert [r["url"] for r in got] == [r["url"] for r in want]
        assert heap.heap_sizes() == [0, 0, 0]  # every logical shard's heap
    finally:
        heap.shutdown()


def test_drain_counters_waits_for_reports_to_a_booting_actor(ray_session):
    """Fetch tasks report outcomes fire-and-forget, often while the pool's
    actor is still booting; calls from a task and from the driver then
    reach it in no fixed order.  drain_counters(expected) must see every
    report: sent to a freshly started pool before the drain, or landing
    after the drain's first round (a report sent 0.3 s into the drain)."""
    import threading

    import ray

    from crawl4ai_ray.stages.hostshard import HostShardPool, submit

    @ray.remote
    def _fetch_task(actors, hosts):
        submit(actors, 3, "report", hosts, hosts, [200] * (len(hosts) - 1) + [404])

    hosts = [f"site{i}.test" for i in range(12)]
    want = [sum(1 for h in hosts[:-1] if h64(h) % 3 == sid) for sid in range(3)]
    for late in (False, False, False, True):
        pool = HostShardPool(3)
        try:
            if late:
                pool.total_size()  # the actor is up: the first round sees nothing
                timer = threading.Timer(0.3, _fetch_task.remote, (pool.shards, hosts))
                timer.start()
            else:
                ray.get(_fetch_task.remote(pool.shards, hosts))
            counters = pool.drain_counters(expected=len(hosts))
            assert [c["fetched"] for c in counters] == want
            assert sum(c["failed"] for c in counters) == 1
            if late:
                timer.join(timeout=10)
                assert not timer.is_alive()
        finally:
            pool.shutdown()


def test_reports_to_a_shut_down_pool_never_reach_the_next_pool(ray_session):
    """A fetch task of an aborted run can report after its engine's
    shutdown().  The report must fail, not land in the next pool's counters,
    which gate ``drain_counters(expected)`` and the engine's page count."""
    import ray

    from crawl4ai_ray.stages.hostshard import HostShardPool, submit

    hosts = [f"site{i}.test" for i in range(12)]
    first = HostShardPool(3)
    first.total_size()  # the actor is up
    stale = list(first.shards)
    first.shutdown()
    second = HostShardPool(3)
    try:
        refs = [ref for _, ref in submit(stale, 3, "report", hosts, hosts, [200] * len(hosts))]
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(refs)
        counters = second.drain_counters()
        assert [(c["fetched"], c["failed"], c["seen_size"]) for c in counters] == [(0, 0, 0)] * 3
    finally:
        second.shutdown()


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
        stage = FetchStage(tr, enforce_delays=False, max_sessions=1, proxy_strategy=st)
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


# ------------------------------------------------------------ cuckoo filter
def test_cuckoo_no_false_negatives():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=10_000)
    keys = [f"https://h{i}.example/p{i}" for i in range(9_000)]
    cf.add_batch(keys)
    assert cf.contains_batch(keys).all()  # cuckoo guarantee: no FN


def test_cuckoo_false_positive_budget():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=10_000)
    cf.add_batch([f"in{i}" for i in range(9_000)])
    fp = cf.contains_batch([f"out{i}" for i in range(10_000)]).mean()
    # 16-bit fingerprints in 4-slot buckets: FP ~ 8/2^16 ≈ 0.01%
    assert fp < 0.01, fp


def test_cuckoo_add_batch_reports_dups_and_counts():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=1000)
    first = cf.add_batch(["a", "b", "a"])  # in-batch dup: first wins
    assert first.tolist() == [False, False, True]
    assert cf.count == 2
    again = cf.add_batch(["a", "b", "c"])
    assert again.tolist() == [True, True, False]
    assert cf.count == 3


def test_cuckoo_delete_restores_absence():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=1000)
    keys = [f"k{i}" for i in range(500)]
    cf.add_batch(keys)
    removed = cf.delete_batch(keys[:100])
    assert removed.all()
    assert cf.count == 400
    # deleted keys gone (modulo fp collisions with the 400 remaining:
    # 16-bit fps make that ~0 at this size), rest intact
    assert not cf.contains_batch(keys[:100]).any()
    assert cf.contains_batch(keys[100:]).all()
    assert not cf.delete_batch(["never-added-xyz"]).any()


def test_cuckoo_serialization_roundtrip():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=1000)
    cf.add_batch([f"u{i}" for i in range(800)])
    cf2 = CuckooFilter.from_bytes(cf.to_bytes())
    assert cf2.count == cf.count
    assert cf2.contains_batch([f"u{i}" for i in range(800)]).all()


def test_cuckoo_overflow_stash_keeps_no_fn():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    # force overload: tiny filter, 2x its sized load → kicks exhaust and
    # spill to the stash; membership must still never false-negative
    cf = CuckooFilter(capacity=64)
    keys = [f"load{i}" for i in range(min(2 * cf.num_buckets * 4, 2000))]
    cf.add_batch(keys)
    assert cf.contains_batch(keys).all()
    # deletes keep working through the stash
    assert cf.delete_batch(keys[:10]).all()


def test_seen_shard_cuckoo_backend():
    from crawl4ai_ray.stages.hostshard import HostShardState

    shard = HostShardState(
        0, capacity=10_000, error_rate=0.01, exact=False, filter_kind="cuckoo"
    )
    fresh = shard.check_and_add(["u1", "u2", "u1"])
    assert fresh.tolist() == [True, True, False]
    again = shard.check_and_add(["u2", "u3"])
    assert again.tolist() == [False, True]
    assert shard.size() == 3


def test_seen_shard_cuckoo_rejects_unsatisfiable_error_rate(ray_session):
    """The state's ValueError surfaces from the pool's actor construction."""
    import ray

    from crawl4ai_ray.stages.hostshard import HostShardPool

    pool = HostShardPool(2, capacity_per_shard=10_000, error_rate=1e-6, exact=False,
                         filter_kind="cuckoo")
    try:
        pool.total_size()
        raise AssertionError("expected constructor ValueError")
    except ray.exceptions.RayActorError as e:
        assert "unsatisfiable" in str(e)
    finally:
        pool.shutdown()


def test_cuckoo_set_semantics_delete_removes_entirely():
    """Docstring contract: add the same key N times (deduped), delete
    once → key absent.  Single key, so no FP collision can mask it."""
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=64)
    cf.add_batch(["the-key", "the-key"])
    cf.add_batch(["the-key"])
    assert cf.count == 1
    assert cf.delete_batch(["the-key"])[0]
    assert not cf.contains_batch(["the-key"])[0]
    assert cf.count == 0


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
