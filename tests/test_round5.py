"""Round-5 additions: size-adaptive revenue dim-join regime equivalence,
DuckDB-CAST-aligned JSON coercion, bucketcap probe batch-count guard."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _canon(t: pa.Table):
    df = t.to_pandas()
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True).round(6)


@pytest.mark.parametrize(
    "qname", ["revenue_by_nation", "revenue_rollup", "top_orders_per_segment"]
)
def test_revenue_dim_join_regime_equivalence(ray_session, qname, monkeypatch,
                                             caplog):
    """The broadcast (dim ≤ threshold) and exchange (dim above threshold)
    regimes of the customer-dim join must produce identical tables — a
    zero threshold forces the exchange on the same input."""
    import logging

    from crawl4ai_ray.pipelines import queries as Q
    from crawl4ai_ray.stages import join

    fn = getattr(Q, qname)
    broadcast = _canon(fn(SF))
    monkeypatch.setattr(join, "BROADCAST_MAX_ROWS", 0)
    with caplog.at_level(logging.INFO, logger="crawl4ai_ray.stages.join"):
        scale = _canon(fn(SF))
    assert broadcast.equals(scale)
    caller = qname if qname == "top_orders_per_segment" else "_nation_revenue"
    assert [r.getMessage() for r in caplog.records if r.name == join.__name__] == [
        f"{caller}: keyed_join inner exchange (right_rows=150, threshold=0)"
    ]


def test_parquet_num_rows_metadata_only(tmp_path):
    import pyarrow.parquet as pq

    from crawl4ai_ray.pipelines.queries import _parquet_num_rows

    t = pa.table({"x": list(range(7))})
    f = tmp_path / "t.parquet"
    pq.write_table(t, str(f))
    assert _parquet_num_rows(str(f)) == 7
    # directory form: sum across files
    d = tmp_path / "dir"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    pq.write_table(t.slice(0, 3), str(d / "b.parquet"))
    assert _parquet_num_rows(str(d)) == 10


def test_events_props_bigint_coercion_matches_duckdb_cast(ray_session):
    """_as_bigint mirrors DuckDB CAST(... AS BIGINT): half away from zero
    on floats/float-strings; DuckDB-erroring inputs degrade to None."""
    import json

    import crawl4ai_ray.pipelines.queries as Q

    tbl = pa.table(
        {
            "event_type": pa.array(["t"] * 8, type=pa.string()),
            "props": pa.array(
                [
                    json.dumps({"k": 1}),
                    json.dumps({"k": 1.5}),    # → 2
                    json.dumps({"k": -1.5}),   # → -2
                    json.dumps({"k": "2.5"}),  # → 3
                    json.dumps({"k": "abc"}),  # → NULL (DuckDB would error)
                    json.dumps({"k": True}),   # → NULL
                    json.dumps({"k": [1]}),    # → NULL
                    None,                       # row counted, k NULL
                ],
                type=pa.string(),
            ),
        }
    )
    import tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(tbl, f"{d}/events.parquet")
        out = Q.events_props_stats(d).take_all()
    assert len(out) == 1
    r = out[0]
    # parseable ks: 1, 2, -2, 3 → n=8, cnt=4, avg=1.0, max=3
    assert r["n"] == 8
    assert r["max_k"] == 3
    assert abs(r["avg_k"] - 1.0) < 1e-9


def test_bucketcap_probe_marker_fallback(ray_session, monkeypatch, decisions):
    """The bounded-block probe counts per-batch marker rows; when observed
    batches != num_blocks the bound is void and it must fall back to the
    exact scale regime rather than under-estimate."""
    import ray

    from crawl4ai_ray.stages import bucketcap as B
    from crawl4ai_ray.stages import join

    # one hot key spread over blocks so per-block partials see it at ≥floor
    n = 4000
    tbl = pa.table(
        {
            "band": pa.array(["hot"] * n + ["cold"] * 50, type=pa.string()),
            "id": pa.array(list(range(n + 50)), type=pa.int64()),
        }
    )
    sigs = ray.data.from_arrow(tbl).repartition(4).materialize()
    max_bucket = 500
    # force the bounded-block branch (skip the driver walk)
    monkeypatch.setattr(join, "DRIVER_PROBE_ROWS", 0)
    exact = B._probe_oversized(sigs, ["band"], max_bucket)
    assert ("hot",) in exact and exact[("hot",)] >= 8
    assert ("cold",) not in exact
    floor_t = join.MIN_SAFE_FLOOR - 1
    assert decisions("bucketcap") == [
        f"_probe_oversized: probe distributed (rows={n + 50}, threshold=0)",
        f"_probe_oversized: floor bounded-block (floor={max_bucket // 4 + 1}, "
        f"threshold={floor_t})",
    ]

    # sabotage the marker count: re-slicing simulation — num_blocks lies
    class FakeSigs:
        def __init__(self, inner):
            self._inner = inner

        def num_blocks(self):
            return self._inner.num_blocks() + 3  # mismatch → fallback

        def __getattr__(self, name):
            return getattr(self._inner, name)

    fb = B._probe_oversized(FakeSigs(sigs), ["band"], max_bucket)
    # fallback path is the exact distributed sum → same oversize verdict
    assert ("hot",) in fb and fb[("hot",)] == int(np.ceil(n / max_bucket))
    # the fallback is a correctness guard inside the bounded-block regime,
    # not a size switch: it logs no record of its own
    assert decisions("bucketcap") == [
        f"_probe_oversized: probe distributed (rows={n + 50}, threshold=0)",
        f"_probe_oversized: floor bounded-block (floor={max_bucket // 7 + 1}, "
        f"threshold={floor_t})",
    ]


def test_conditional_head_accepts_proxy_kwarg():
    """Signature parity: both transports take proxy= on conditional_head so
    RevalidateStage can thread the rotation strategy through either."""
    import inspect

    from crawl4ai_ray.sources.corpus import SyntheticTransport
    from crawl4ai_ray.sources.http_transport import HttpTransport

    for cls in (SyntheticTransport, HttpTransport):
        sig = inspect.signature(cls.conditional_head)
        assert "proxy" in sig.parameters


@pytest.mark.parametrize("qname", ["embedding_neardup", "jaccard_neardup_exact_pairs"])
def test_allpairs_blockwise_regime_equivalence(ray_session, qname, monkeypatch,
                                               decisions):
    """The broadcast brute-force regime and the block-pair decomposition
    must produce identical pair tables — a zero threshold forces the
    blockwise path on the same input."""
    from crawl4ai_ray.pipelines import queries as Q
    from crawl4ai_ray.stages import join

    fn = getattr(Q, qname)
    size_name, table = {"embedding_neardup": ("vectors", "embeddings"),
                        "jaccard_neardup_exact_pairs": ("docs", "documents")}[qname]
    size = f"{size_name}={Q._parquet_num_rows(f'{SF}/{table}.parquet')}"
    a = fn(SF)
    assert decisions("queries") == [
        f"{qname}: all-pairs broadcast ({size}, "
        f"threshold={join.ALLPAIRS_BROADCAST_MAX_ROWS})"
    ]
    monkeypatch.setattr(join, "ALLPAIRS_BROADCAST_MAX_ROWS", 0)
    b = fn(SF)
    assert decisions("queries") == [
        f"{qname}: all-pairs block-pair ({size}, threshold=0)"
    ]
    at = a if isinstance(a, pa.Table) else pa.Table.from_pylist(a.take_all())
    bt = b if isinstance(b, pa.Table) else pa.Table.from_pylist(b.take_all())
    assert _canon(at).equals(_canon(bt))
    assert at.num_rows > 0  # planted dups exist at sf0.001
