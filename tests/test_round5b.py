"""Round-5 second batch: per-key argmax reduce, semi-join, window ranks,
Q17-style decorrelation (incl. its size-adaptive scale regime)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _tbl(r) -> pa.Table:
    if isinstance(r, pa.Table):
        return r
    return pa.Table.from_pylist(r.take_all())


def _cents(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64) * 100
    return np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5)).astype(np.int64)


def test_order_top_lineitem_argmax(ray_session):
    from crawl4ai_ray.pipelines.queries import order_top_lineitem

    got = (
        _tbl(order_top_lineitem(SF))
        .to_pandas()
        .sort_values("l_orderkey")
        .reset_index(drop=True)
    )

    li = pq.read_table(
        f"{SF}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    ).to_pandas()
    li["price_c"] = _cents(li["l_extendedprice"].to_numpy())
    li = li.sort_values(
        ["l_orderkey", "price_c", "l_linenumber"],
        ascending=[True, False, True],
    )
    want = li.groupby("l_orderkey", as_index=False).first()

    assert len(got) == len(want)
    assert (got["l_orderkey"].to_numpy() == want["l_orderkey"].to_numpy()).all()
    assert (got["l_linenumber"].to_numpy() == want["l_linenumber"].to_numpy()).all()
    assert np.allclose(
        got["price"].to_numpy(), want["price_c"].to_numpy() / 100.0
    )


def test_customers_with_old_orders_semi_join(ray_session):
    from crawl4ai_ray.pipelines.queries import customers_with_old_orders

    got = _tbl(customers_with_old_orders(SF)).to_pandas()

    orders = pq.read_table(
        f"{SF}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).to_pandas()
    cust = pq.read_table(
        f"{SF}/customer.parquet", columns=["c_custkey"]
    ).to_pandas()
    active = set(
        orders.loc[
            orders["o_orderdate"] < pd.Timestamp("1996-01-01"), "o_custkey"
        ]
    ) & set(cust["c_custkey"])

    assert set(got["c_custkey"]) == active
    assert len(got) == len(active)  # one row per customer, never duplicated
    # proper subset on this fixture: the gate actually filters
    assert 0 < len(active) < len(cust)


def test_customer_order_ranks_row_number(ray_session):
    from crawl4ai_ray.pipelines.queries import customer_order_ranks

    got = (
        _tbl(customer_order_ranks(SF))
        .to_pandas()
        .sort_values(["o_custkey", "rnk"])
        .reset_index(drop=True)
    )

    o = pq.read_table(
        f"{SF}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).to_pandas()
    o["price_c"] = _cents(o["o_totalprice"].to_numpy())
    o = o.sort_values(
        ["o_custkey", "price_c", "o_orderkey"], ascending=[True, False, True]
    )
    o["rnk"] = o.groupby("o_custkey").cumcount() + 1

    assert len(got) == len(o)
    merged = got.merge(
        o[["o_orderkey", "rnk"]], on="o_orderkey", suffixes=("", "_want")
    )
    assert (merged["rnk"] == merged["rnk_want"]).all()
    # ranks within each customer are a 1..n permutation
    per = got.groupby("o_custkey")["rnk"]
    assert (per.min() == 1).all()
    assert (per.max() == per.count()).all()


def test_small_quantity_revenue_regime_equivalence(ray_session, monkeypatch,
                                                   caplog):
    """Broadcast and exchange (zero threshold) regimes must return the
    identical single-row answer, and match a local recomputation."""
    import logging

    from crawl4ai_ray.pipelines.queries import small_quantity_revenue
    from crawl4ai_ray.stages import join

    broadcast = _tbl(small_quantity_revenue(SF))
    monkeypatch.setattr(join, "BROADCAST_MAX_ROWS", 0)
    with caplog.at_level(logging.INFO, logger="crawl4ai_ray.stages.join"):
        scale = _tbl(small_quantity_revenue(SF))
    assert [r.getMessage() for r in caplog.records if r.name == join.__name__] == [
        "small_quantity_revenue: keyed_join inner exchange "
        f"(right_rows={pq.ParquetFile(f'{SF}/lineitem.parquet').metadata.num_rows}, "
        "threshold=0)"
    ]
    a = broadcast.column("avg_yearly")[0].as_py()
    b = scale.column("avg_yearly")[0].as_py()
    assert a == b

    li = pq.read_table(
        f"{SF}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    ).to_pandas()
    thr = 0.2 * li.groupby("l_partkey")["l_quantity"].agg(
        lambda s: s.to_numpy(dtype=np.int64).sum() / len(s)
    )
    keep = li["l_quantity"].to_numpy() < thr.loc[li["l_partkey"]].to_numpy()
    want_c = int(_cents(li.loc[keep, "l_extendedprice"].to_numpy()).sum())
    want = np.floor(want_c / 100.0 / 7.0 * 100 + 0.5) / 100
    assert a == want


def test_shingle_hash_rows_parity():
    """Batch unique-first hashing must reproduce the per-doc functions
    bit-for-bit (same md5_64 values — the DuckDB oracle contract)."""
    from crawl4ai_ray.functions.textstats import (
        MinHasher,
        shingle_hash_rows,
        shingle_hashes,
        shingles,
    )

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        "one",
        "two words",
        "the quick brown fox sat on the mat",  # shares shingles with #0
        "a b c a b c a b c",  # internal repetition
        "ünïcode tokens ünïcode tokens here",
    ]
    base, offs = shingle_hash_rows(texts, 3)
    h = MinHasher()
    sigs = h.signatures_from_rows(base, offs)
    for i, t in enumerate(texts):
        want = shingle_hashes(t, 3)
        got = np.sort(base[offs[i] : offs[i + 1]])
        assert (got == want).all(), i
        assert (sigs[i] == h.signature(shingles(t, 3))).all(), i


def test_bands_bytes_parity():
    """bands_bytes must induce EXACTLY the same bucket groupings as the
    decimal-string bands() — two signatures share a byte key iff they
    share the string key (injective re-encoding, LSH semantics intact)."""
    from crawl4ai_ray.functions.textstats import MinHasher

    h = MinHasher()
    rng = np.random.RandomState(7)
    sigs = rng.randint(0, 2**63, size=(40, h.num_perm)).astype(np.uint64)
    sigs[10] = sigs[3]  # exact dup
    sigs[11, :8] = sigs[3, :8]  # shares band 0 only
    str_keys = [h.bands(s) for s in sigs]
    byte_keys = [h.bands_bytes(s) for s in sigs]
    n_bands = h.num_perm // 8
    for b in range(n_bands):
        for i in range(len(sigs)):
            for j in range(len(sigs)):
                assert (str_keys[i][b] == str_keys[j][b]) == (
                    byte_keys[i][b] == byte_keys[j][b]
                ), (b, i, j)


def test_hll_distinct_users_accuracy(ray_session):
    """The sketch estimate must land within the standard HLL error band
    (1.04/sqrt(256) ≈ 6.5%; allow 4 sigma) of the exact distinct count,
    and the register fold must be deterministic across runs."""
    import duckdb

    from crawl4ai_ray.pipelines.queries import hll_distinct_users

    got = _tbl(hll_distinct_users(SF)).to_pandas().set_index("event_type")
    exact = (
        duckdb.query(
            f"SELECT event_type, count(DISTINCT user_id) AS n "
            f"FROM '{SF}/events.parquet' GROUP BY event_type"
        )
        .to_df()
        .set_index("event_type")
    )
    assert set(got.index) == set(exact.index)
    for t, row in exact.iterrows():
        est = got.loc[t, "approx_distinct"]
        assert abs(est - row["n"]) <= max(0.26 * row["n"], 8.0), (
            t,
            est,
            row["n"],
        )
    again = _tbl(hll_distinct_users(SF)).to_pandas().set_index("event_type")
    assert (got["approx_distinct"] == again["approx_distinct"]).all()


def test_cms_heavy_hitters_guarantee(ray_session):
    """Count-min never under-counts (est ≥ exact for every candidate) and
    the heavy set matches the exact distributed count at the threshold."""
    import duckdb

    from crawl4ai_ray.pipelines.queries import cms_heavy_hitters

    got = _tbl(cms_heavy_hitters(SF)).to_pandas()
    assert (got["cms_cnt"] >= got["exact_cnt"]).all()
    exact = duckdb.query(
        f"SELECT user_id, count(*) AS cnt FROM '{SF}/events.parquet' "
        f"GROUP BY user_id HAVING cnt >= 75"
    ).to_df()
    assert set(got["user_id"]) == set(exact["user_id"])
    merged = got.merge(exact, on="user_id")
    assert (merged["exact_cnt"] == merged["cnt"]).all()


def test_bloom_semi_join_exact_under_false_positives(ray_session):
    """Shrinking the bloom to its 64-bit floor floods the probe with false
    positives — the exact verify stage must still produce the identical
    inner-join aggregate (the bloom sizes the shuffle, never the answer)."""
    import duckdb

    from crawl4ai_ray.pipelines.queries import large_part_revenue_bloom

    tiny = (
        _tbl(large_part_revenue_bloom(SF, bloom_capacity=1))
        .to_pandas()
        .sort_values("l_partkey")
        .reset_index(drop=True)
    )
    normal = (
        _tbl(large_part_revenue_bloom(SF))
        .to_pandas()
        .sort_values("l_partkey")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(tiny, normal)
    exact = (
        duckdb.query(
            f"""SELECT l.l_partkey, count(*) AS n_items
                FROM '{SF}/lineitem.parquet' l
                JOIN '{SF}/part.parquet' p ON p.p_partkey = l.l_partkey
                WHERE p.p_size >= 48 GROUP BY l.l_partkey
                ORDER BY l.l_partkey"""
        )
        .to_df()
        .reset_index(drop=True)
    )
    assert (normal["l_partkey"].to_numpy() == exact["l_partkey"].to_numpy()).all()
    assert (normal["n_items"].to_numpy() == exact["n_items"].to_numpy()).all()


def test_bloom_join_sums_cents_exactly_past_2_53(ray_session, tmp_path):
    """A part's cents sum above 2^53 stays exact: the probe partials add
    int64 cents.  A float64 sum sticks at the first even value past 2^53
    and drops each later odd cent."""
    from crawl4ai_ray.pipelines.queries import large_part_revenue_bloom

    pq.write_table(
        pa.table({"p_partkey": pa.array([1, 2], type=pa.int64()),
                  "p_size": pa.array([50, 10], type=pa.int32())}),
        str(tmp_path / "part.parquet"),
    )
    prices = [45035996273704.97, 45035996273704.99] + [0.01] * 200
    pq.write_table(
        pa.table({"l_partkey": pa.array([1] * len(prices), type=pa.int64()),
                  "l_extendedprice": pa.array(prices, type=pa.float64())}),
        str(tmp_path / "lineitem.parquet"),
    )
    want_c = sum(int(c) for c in _cents(np.array(prices)))
    assert want_c > 2**53
    got = _tbl(large_part_revenue_bloom(str(tmp_path))).to_pylist()
    assert got == [{"l_partkey": 1, "n_items": len(prices), "revenue": want_c / 100.0}]


def test_hll_register_count_is_the_named_constant():
    """hll_distinct_users(m=...) returned wrong estimates for any m != 256;
    the register count is now the module constant its SQL oracle shares."""
    import inspect

    from crawl4ai_ray.pipelines import queries as Q

    assert list(inspect.signature(Q.hll_distinct_users).parameters) == ["sf_dir"]
    assert Q.HLL_M == 256
    assert f"hv % {Q.HLL_M}" in Q.ORACLE_SQL["hll_distinct_users"]


def test_quantile_hist_rank_bracket(ray_session):
    """Histogram quantiles guarantee RANK resolution, not value distance
    (a sparse tail bin can sit far from the exact quantile in value):
    the estimate lies inside its picked bin, so the empirical CDF one bin
    width either side of it must bracket the target rank q·n."""
    import duckdb

    from crawl4ai_ray.pipelines.queries import events_value_quantile_hist

    got = _tbl(events_value_quantile_hist(SF)).to_pandas()
    vals = duckdb.query(
        f"SELECT event_type, value FROM '{SF}/events.parquet'"
    ).to_df()
    for _, row in got.iterrows():
        v = vals.loc[
            vals["event_type"] == row["event_type"], "value"
        ].to_numpy()
        w = (v.max() - v.min()) / 256.0
        target = row["q"] * len(v)
        est = row["quantile_est"]
        assert (v <= est + w + 1e-9).sum() >= target - 1e-6, (
            row["event_type"], row["q"],
        )
        assert (v < est - w - 1e-9).sum() < target + 1e-6, (
            row["event_type"], row["q"],
        )
