"""Query-vs-DuckDB oracle harness (mirrors the driver's comparison: row
count + schema + order-insensitive value comparison) at sf0.001, pinned
outputs for the rows-only queries, and invariant tests."""

import hashlib
import math

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from crawl4ai_ray.pipelines import queries as Q

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _duck(sql: str) -> pa.Table:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con.execute(sql).arrow()


def _to_table(result) -> pa.Table:
    if isinstance(result, pa.Table):
        return result
    if isinstance(result, pd.DataFrame):
        return pa.Table.from_pandas(result)
    # ray Dataset
    return pa.Table.from_pylist(result.take_all())


def _canon(tbl: pa.Table) -> list[tuple]:
    cols = sorted(tbl.column_names)
    df = tbl.select(cols).to_pandas()
    rows = []
    for row in df.itertuples(index=False):
        canon_row = []
        for v in row:
            if isinstance(v, float):
                canon_row.append(round(v, 6) if not math.isnan(v) else "nan")
            else:
                canon_row.append(v)
        rows.append(tuple(str(x) for x in canon_row))
    return sorted(rows)


SQL_QUERIES = sorted(Q.ORACLE_SQL)


@pytest.mark.parametrize("name", SQL_QUERIES)
def test_query_matches_oracle(name, ray_session):
    got = _to_table(Q.QUERIES[name](SF))
    want = _duck(Q.ORACLE_SQL[name])
    assert got.num_rows == want.num_rows, f"{name}: rows {got.num_rows} != {want.num_rows}"
    assert sorted(got.column_names) == sorted(want.column_names), name
    assert _canon(got) == _canon(want), name


ROWS_ONLY = sorted(set(Q.QUERIES) - set(Q.ORACLE_SQL) - {"crawl_bfs_demo"})

# (row count, sha256 of repr(_canon(rows))) of each rows-only query at SF:
# these queries have no SQL oracle, so their seeded output is pinned instead
ROWS_ONLY_PINS = {
    "crawl_pagerank_demo": (20, "53855833ba111be080a489581a4966e65db16f16afbaf2ea582b97a1146a7b3b"),
    "docs_interleaved": (60, "85a7ca5f49fb5cc2962e1144f627b5d145ee5d921588f103515b15e6b34c6a60"),
    "fit_markdown_demo": (118, "fbd14abc72b34c1bf1440a6fa37f74b3f2942f093059c20814de6e322755d7c9"),
    "head_filter_crawl_demo": (80, "26e8e7120e17f8122779b3762307effd10a7de4940545bb08da686e5a731cafd"),
    "link_preview_demo": (144, "02ea770ff8b9a77e37119541a47b93fccfcf43cf7bf42c282df8de32681a47d6"),
    "media_catalog_crawl": (77, "6aafa15d3beb722601210dc7bced6b7ba725e79b49f0ec9db47cdb198abe3660"),
    "raw_markdown_demo": (78, "155fefbf1644282f9da6683f009489a2ebce32e921b9c056e7465431aeee8e39"),
    "seeder_sitemap_demo": (100, "726cc8a22ad608895e910faa928777e56977251df741f14c4c59c354252aeb6b"),
}


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(name, ray_session):
    rows = _canon(_to_table(Q.QUERIES[name](SF)))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert (len(rows), digest) == ROWS_ONLY_PINS[name], name


def test_langid_predicts_english_heavy(ray_session):
    tbl = _to_table(Q.langid_predict(SF))
    preds = tbl.column("predicted").to_pylist()
    assert set(preds) <= {"en", "de", "fr", "es", "zh", "und"}


def test_simhash_near_for_similar_text(ray_session):
    from crawl4ai_ray.functions.textstats import hamming64, simhash64

    a = "the quick brown fox jumps over the lazy dog again and again today"
    b = "the quick brown fox jumps over the lazy dog again and again tomorrow"
    c = "completely different words about databases and streaming engines"
    assert hamming64(simhash64(a), simhash64(b)) < hamming64(simhash64(a), simhash64(c))


def test_minhash_finds_planted_dups(ray_session, monkeypatch, decisions):
    """Plant near-duplicates and verify the LSH pipeline surfaces exactly
    the planted pairs at threshold 0.5."""
    import re

    import ray.data

    from crawl4ai_ray.stages import join
    from crawl4ai_ray.stages.dedup import minhash_dedup_pairs

    base = (
        "the quick brown fox jumps over the lazy dog while the cat sleeps "
        "by the warm fire and the mouse runs through the old wooden house"
    )
    rows = [{"doc_id": 0, "text": base}]
    rows.append({"doc_id": 1, "text": base.replace("warm", "cold")})  # near-dup of 0
    rows.append({"doc_id": 2, "text": base})  # exact dup of 0
    for i in range(3, 30):
        rows.append(
            {"doc_id": i, "text": f"unrelated document number {i} with totally distinct tokens {i * 7} {i * 13} stream batch merge sort filter join"}
        )
    ds = ray.data.from_items(rows)
    expected = {(0, 1), (0, 2), (1, 2)}
    # both verify regimes must agree: semi-join broadcast (default at this
    # size) and the distributed hash-join path (forced via a zero
    # PAIRS_DRIVER_MAX_ROWS), each with its pair dedup regime
    for dedup, verify, limit in (("driver", "broadcast", None), ("exchange", "exchange", 0)):
        if limit is not None:
            monkeypatch.setattr(join, "PAIRS_DRIVER_MAX_ROWS", limit)
        pairs = _to_table(minhash_dedup_pairs(ds, threshold=0.5))
        found = {(r["id_a"], r["id_b"]) for r in pairs.to_pylist()}
        assert expected <= found, verify
        assert all(a in (0, 1, 2) and b in (0, 1, 2) for a, b in found), verify
        t = join.PAIRS_DRIVER_MAX_ROWS
        records = decisions("dedup")
        assert len(records) == 2, records
        assert re.fullmatch(rf"minhash_dedup_pairs: pair dedup {dedup} "
                            rf"\(raw_pairs=\d+, threshold={t}\)", records[0]), records
        assert re.fullmatch(rf"minhash_dedup_pairs: verify {verify} "
                            rf"\(pairs=\d+, threshold={t}\)", records[1]), records


def test_media_catalog_deterministic_meta(ray_session):
    tbl = _to_table(Q.media_catalog(SF))
    assert tbl.num_rows > 0
    assert set(tbl.column_names) == {"doc_id", "media_ref", "kind", "width", "height", "format"}
    assert all(w >= 64 for w in tbl.column("width").to_pylist())
    assert set(tbl.column("format").to_pylist()) == {"jpg"}


def test_knn_lsh_contains_query(ray_session):
    tbl = _to_table(Q.knn_cosine_lsh(SF))
    ids = tbl.column("vec_id").to_pylist()
    assert 0 in ids  # the query vector itself lands in its own bucket


def test_lsh_neardup_recall(ray_session):
    """LSH-verified pairs are a subset of brute-force pairs (no false
    positives after verify) with planted near-dups recovered."""
    import numpy as np
    import ray.data

    from crawl4ai_ray.stages.similarity import (
        _normalize,
        cosine_neardup_pairs,
        lsh_neardup_pairs,
    )

    rng = np.random.RandomState(3)
    base = rng.normal(size=(40, 16))
    # plant 5 near-dup pairs (ids 100+i ~ ids i)
    dups = base[:5] + rng.normal(scale=0.05, size=(5, 16))
    vecs = np.vstack([base, dups])
    ids = np.array(list(range(40)) + [100 + i for i in range(5)])
    m = _normalize(vecs)
    rows = [{"vec_id": int(i), "embedding": v.tolist()} for i, v in zip(ids, vecs)]
    ds = ray.data.from_items(rows)

    brute = {
        (r["id_a"], r["id_b"])
        for r in cosine_neardup_pairs(ds, threshold=0.9, full_matrix=(ids, m)).take_all()
    }
    lsh = {
        (r["id_a"], r["id_b"])
        for r in lsh_neardup_pairs(ds, dim=16, threshold=0.9, n_planes=6).take_all()
    }
    assert lsh <= brute  # verify stage kills any bucket false positive
    planted = {(i, 100 + i) for i in range(5)}
    assert planted <= brute
    assert len(lsh & planted) >= 3  # LSH recall on planted dups


def test_docs_interleaved_contract(ray_session):
    import pyarrow as pa

    from crawl4ai_ray.pipelines.queries import docs_interleaved
    from crawl4ai_ray.schema import DOCS_SCHEMA

    tbl = docs_interleaved(SF)
    assert tbl.num_rows > 20
    assert set(tbl.column_names) == {"doc_id", "spans"}
    spans0 = tbl.column("spans")[0].as_py()
    assert spans0 and set(spans0[0]) == {"kind", "text", "media_ref", "offset"}
    # castable to the declared schema
    pa.table(
        {"doc_id": tbl.column("doc_id"), "spans": tbl.column("spans")}
    ).cast(DOCS_SCHEMA)


def test_simhash_pairs_planted_dups(ray_session):
    """Planted near-identical docs must surface as simhash pairs at
    hamming ≤ 3; unrelated docs must not."""
    import ray.data

    from crawl4ai_ray.stages.dedup import simhash_neardup_pairs

    base = (
        "the quick brown fox jumps over the lazy dog while the cat sleeps "
        "by the warm fire and the mouse runs through the old wooden house "
        "near the tall green hill beyond the quiet river"
    )
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base.replace("warm", "cold")},
        {"doc_id": 2, "text": base},  # exact dup → hamming 0
    ]
    for i in range(3, 40):
        rows.append(
            {"doc_id": i,
             "text": f"unrelated {i} stream batch merge sort filter join shard {i*7} {i*13} vector index scan probe"}
        )
    pairs = _to_table(simhash_neardup_pairs(ray.data.from_items(rows)))
    found = {(r["id_a"], r["id_b"]): r["hamming"] for r in pairs.to_pylist()}
    assert found.get((0, 2)) == 0  # exact dup
    assert (0, 1) in found or (1, 2) in found  # near-dup within radius
    assert all(a in (0, 1, 2) and b in (0, 1, 2) for a, b in found)


def test_ivf_knn_recall_vs_brute(ray_session):
    """IVF probe-and-rerank: results ⊆ exact ranking universe, top-1
    recovered, recall@10 ≥ 0.5 at nprobe=5/8 cells on sf0.001."""
    from crawl4ai_ray.pipelines.queries import _query_vec, knn_cosine_ivf
    from crawl4ai_ray.stages.similarity import knn_cosine
    import ray.data

    q = _query_vec(SF)
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    exact = knn_cosine(ds, q, k=10).column("vec_id").to_pylist()
    approx = _to_table(knn_cosine_ivf(SF)).column("vec_id").to_pylist()
    assert approx[0] == exact[0] == 0  # the query vector itself
    assert len(set(approx) & set(exact)) >= 5


def test_minhash_recall_vs_exact_jaccard(ray_session):
    """LSH-verified pairs ⊆ exact all-pairs jaccard (verify kills bucket
    false positives), with high recall at this banding (64 perms / 8 rows
    → ~0.97 recall at j=0.5)."""
    exact = {
        (r["id_a"], r["id_b"])
        for r in _to_table(Q.QUERIES["jaccard_neardup_exact"](SF)).to_pylist()
    }
    lsh = {
        (r["id_a"], r["id_b"])
        for r in _to_table(Q.QUERIES["minhash_neardup_pairs"](SF)).to_pylist()
    }
    assert lsh <= exact
    if exact:
        assert len(lsh) / len(exact) >= 0.8
