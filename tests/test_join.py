"""keyed_join against a plain driver-side ``pa.Table.join`` reference: every
join type in both regimes, salted and unsalted, with and without per-key
partial sums, plus the empty / one-sided / dirty-block edge cases."""

import ast
import fnmatch
import logging
from pathlib import Path

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from crawl4ai_ray.stages import join
from crawl4ai_ray.stages.join import keyed_join

HOWS = ["inner", "left", "semi", "anti"]
JOIN_TYPE = {"inner": "inner", "left": "left outer",
             "semi": "left semi", "anti": "left anti"}

LEFT = pa.table({
    "k": pa.array([1, 2, 2, 3, 5, 5, 5, None, 9], type=pa.int64()),
    "doc": pa.array([10, 11, 12, 13, 14, 15, 16, 17, 18], type=pa.int64()),
    "lv": ["a", "b", "c", "d", "e", "f", "g", "h", "i"],
})
# the logical right side: one row per key (key 4 and null match nothing)
RIGHT = pa.table({
    "rk": pa.array([2, 3, 4, 5, None], type=pa.int64()),
    "rs": ["two", "three", "four", "five", "null"],
    "rb": pa.array([b"\x02", b"\x03", b"\x04", b"\x05", b"\x00"]),
    "rf": [2.5, 3.5, 4.5, 5.5, 0.5],
    "rn": pa.array([20, 30, 40, 50, 0], type=pa.int64()),
})
# the same right side as per-batch partials of ``rn``: several rows per key
PARTIALS = pa.table({
    "rk": pa.array([2, 3, 4, 5, None, 2, 5, 5], type=pa.int64()),
    "rs": ["two", "three", "four", "five", "null", "two", "five", "five"],
    "rb": pa.array([b"\x02", b"\x03", b"\x04", b"\x05", b"\x00",
                    b"\x02", b"\x05", b"\x05"]),
    "rf": [2.5, 3.5, 4.5, 5.5, 0.5, 2.5, 5.5, 5.5],
    "rn": pa.array([5, 30, 40, 10, 0, 15, 25, 15], type=pa.int64()),
})


def _ds(tbl: pa.Table, blocks: int = 3):
    step = max(1, -(-tbl.num_rows // blocks))
    parts = [tbl.slice(i, step) for i in range(0, tbl.num_rows, step)]
    return rd.from_arrow(parts or [tbl])


def _canon(tbl: pa.Table) -> list:
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in r.items())) for r in tbl.to_pylist()
    )


def _rows(result) -> list:
    # blocks concatenate the way Ray's own consumers concatenate them
    tables = [t for t in ray.get(result.to_arrow_refs()) if t.num_rows]
    return _canon(pa.concat_tables(tables, promote_options="default")) if tables else []


def _regimes(records: list[str]) -> list[str]:
    """The regime of each ``"<caller>: keyed_join <how> <regime> (...)"``."""
    return [r.split()[3] for r in records]


def _reference(left: pa.Table, right: pa.Table, how: str) -> list:
    if how in ("semi", "anti"):
        right = right.select(["rk"])
    return _canon(left.join(right, keys="k", right_keys="rk", join_type=JOIN_TYPE[how]))


@pytest.mark.parametrize("summed", [False, True], ids=["plain", "right_sum"])
@pytest.mark.parametrize("salt", [1, 4])
@pytest.mark.parametrize("regime", ["broadcast", "exchange"])
@pytest.mark.parametrize("how", HOWS)
def test_keyed_join_matches_arrow_join(ray_session, decisions, how, regime, salt,
                                      summed):
    right = PARTIALS if summed else RIGHT
    kw = {"right_sum": ["rn"]} if summed else {}
    got = keyed_join(
        _ds(LEFT), _ds(right), "k", how=how, right_on="rk", salt=salt,
        salt_col="doc" if salt > 1 else None,
        right_rows=right.num_rows if regime == "broadcast" else None, **kw,
    )
    assert _rows(got) == _reference(LEFT, RIGHT, how)
    assert _regimes(decisions("join")) == [regime]


@pytest.mark.parametrize("regime", ["broadcast", "exchange"])
@pytest.mark.parametrize("how", HOWS)
def test_keyed_join_edge_cases(ray_session, decisions, how, regime):
    def rows_of(tbl):
        return tbl.num_rows if regime == "broadcast" else None

    empty_left = LEFT.slice(0, 0)
    empty_right = RIGHT.slice(0, 0)
    far_right = pa.table({
        "rk": pa.array([7, 8], type=pa.int64()), "rs": ["x", "y"],
        "rb": pa.array([b"x", b"y"]), "rf": [7.0, 8.0],
        "rn": pa.array([7, 8], type=pa.int64()),
    })
    for left, right in [(empty_left, RIGHT), (LEFT, empty_right),
                        (LEFT, far_right)]:
        got = keyed_join(_ds(left), _ds(right), "k", how=how, right_on="rk",
                         right_rows=rows_of(right))
        want = _reference(left, right, how)
        if how == "left" and regime == "exchange" and not right.num_rows:
            # documented: an empty right side adds no right columns here
            want = _reference(left, right, "anti")
        assert _rows(got) == want, (left.num_rows, right.num_rows)
        assert _regimes(decisions("join")) == [regime]


@pytest.mark.parametrize("regime", ["broadcast", "exchange"])
@pytest.mark.parametrize("how", HOWS)
def test_keyed_join_right_from_groupby_with_empty_blocks(ray_session, decisions, how,
                                                         regime):
    """The right side descends from a groupby over more partitions than
    keys, so it carries empty blocks — the input that breaks
    ``Dataset.join``."""
    right = (
        rd.from_arrow(PARTIALS).repartition(8)
        .groupby("rk")
        .map_groups(lambda g: g, batch_format="pyarrow")
    )
    got = keyed_join(_ds(LEFT), right, "k", how=how, right_on="rk",
                     right_sum=["rn"],
                     right_rows=PARTIALS.num_rows if regime == "broadcast" else None)
    assert _rows(got) == _reference(LEFT, RIGHT, how)
    assert _regimes(decisions("join")) == [regime]


def test_keyed_join_logs_one_regime_record(ray_session, caplog, monkeypatch):
    with caplog.at_level(logging.INFO, logger="crawl4ai_ray.stages.join"):
        keyed_join(_ds(LEFT), _ds(RIGHT), "k", how="semi", right_on="rk",
                   right_rows=5)
        monkeypatch.setattr(join, "BROADCAST_MAX_ROWS", 4)
        keyed_join(_ds(LEFT), _ds(RIGHT), "k", how="semi", right_on="rk",
                   right_rows=5)
        keyed_join(_ds(LEFT), _ds(RIGHT), "k", how="semi", right_on="rk")
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "crawl4ai_ray.stages.join"]
    assert msgs == [
        "test_keyed_join_logs_one_regime_record: keyed_join semi broadcast "
        "(right_rows=5, threshold=2000000)",
        "test_keyed_join_logs_one_regime_record: keyed_join semi exchange "
        "(right_rows=5, threshold=4)",
        "test_keyed_join_logs_one_regime_record: keyed_join semi exchange "
        "(right_rows=None, threshold=4)",
    ]


def test_keyed_join_rejects_bad_arguments(ray_session):
    with pytest.raises(ValueError):
        keyed_join(_ds(LEFT), _ds(RIGHT), "k", how="outer", right_on="rk")
    with pytest.raises(ValueError):  # salting needs a column to hash
        keyed_join(_ds(LEFT), _ds(RIGHT), "k", how="inner", right_on="rk", salt=4)


# SQL-oracled queries whose joins moved onto keyed_join; at test scale they
# broadcast, so the oracle suite alone never runs their exchange regime.
# doc_top_keywords / unigram_logprob_scores join only in their scale
# regime (a zero TOKEN_GROUP_MAX_ROWS forces it).
PORTED = {
    "order_lineitem_totals": {},
    "customers_never_active": {},
    "customers_with_old_orders": {},
    "large_part_revenue_bloom": {},
    "bigram_collocations": {},
    "doc_top_keywords": {"TOKEN_GROUP_MAX_ROWS": 0},
    "unigram_logprob_scores": {"TOKEN_GROUP_MAX_ROWS": 0},
}


@pytest.mark.parametrize("regime", ["broadcast", "exchange"])
@pytest.mark.parametrize("name", sorted(PORTED))
def test_ported_query_matches_oracle_in_both_regimes(ray_session, monkeypatch,
                                                     decisions, name, regime):
    from crawl4ai_ray.pipelines import queries as Q
    from test_queries import SF, _canon, _duck, _to_table

    for const, value in PORTED[name].items():
        monkeypatch.setattr(join, const, value)
    if regime == "exchange":
        monkeypatch.setattr(join, "BROADCAST_MAX_ROWS", 0)
    got = _to_table(Q.QUERIES[name](SF))
    want = _duck(Q.ORACLE_SQL[name])
    assert got.num_rows == want.num_rows
    assert _canon(got) == _canon(want)
    joins = _regimes(decisions("join"))
    assert joins and set(joins) == {regime}, joins
    if PORTED[name]:
        n_docs = Q._parquet_num_rows(f"{SF}/documents.parquet")
        assert decisions("queries") == [
            f"{name}: token total salted-join (docs={n_docs}, threshold=0)"
        ]


def test_pagerank_edges_regimes_agree(ray_session, monkeypatch, decisions):
    from crawl4ai_ray.stages.graphrank import pagerank_edges

    E = [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a"), ("c", "d"), ("e", "a")]
    edges = rd.from_arrow(pa.table({"src": [s for s, _ in E], "dst": [d for _, d in E]}))
    broadcast = {r["node"]: r["pr"] for r in pagerank_edges(edges, iters=3).take_all()}
    joins = _regimes(decisions("join"))
    assert joins and set(joins) == {"broadcast"}, joins
    monkeypatch.setattr(join, "BROADCAST_MAX_ROWS", 0)
    exchange = {r["node"]: r["pr"] for r in pagerank_edges(edges, iters=3).take_all()}
    joins = _regimes(decisions("join"))
    assert joins and set(joins) == {"exchange"}, joins
    assert broadcast.keys() == exchange.keys() == set("abcde")
    assert all(abs(broadcast[v] - exchange[v]) < 1e-12 for v in broadcast)


def test_decide_takes_the_large_regime_without_a_size(caplog):
    with caplog.at_level(logging.INFO, logger=join.__name__):
        assert join.decide("f", "s", "rows", 3, 3, "small", "large") == "small"
        assert join.decide("f", "s", "rows", 4, 3, "small", "large") == "large"
        assert join.decide("f", "s", "rows", None, 3, "small", "large") == "large"
    # called from this test module: logged on the join logger's child of that name
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        (f"{join.__name__}.test_join", msg) for msg in (
            "f: s small (rows=3, threshold=3)",
            "f: s large (rows=4, threshold=3)",
            "f: s large (rows=None, threshold=3)",
        )
    ]


# A size switch compares a size against a threshold of one of these names.
SIZE_THRESHOLD_NAMES = ("*_threshold", "*_MAX_ROWS", "*_ROWS", "MIN_SAFE_FLOOR",
                        "small_corpus_docs")
# per-row content cutoffs of the ported page library (chunk, fit-html and
# table scoring): they filter text and pick no regime
CONTENT_CUTOFFS = {"chunk_token_threshold", "text_threshold", "attr_threshold",
                   "table_score_threshold"}


def _threshold_names(node: ast.AST) -> list[str]:
    """Threshold names an operand reads outside a ``decide(...)`` call: bare
    names, and module constants reached by attribute
    (``join.BROADCAST_MAX_ROWS``).  Lower-case attributes are the fields of
    a filter's config, not size thresholds."""
    if isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)
    ) == "decide":
        return []  # `decide(...) == "broadcast"` reads the regime it chose
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) and node.attr.isupper()
            else None)
    out = [name] if name and name not in CONTENT_CUTOFFS and any(
        fnmatch.fnmatchcase(name, p) for p in SIZE_THRESHOLD_NAMES
    ) else []
    for child in ast.iter_child_nodes(node):
        out += _threshold_names(child)
    return out


def test_every_size_switch_goes_through_decide():
    """No comparison against a size threshold outside ``join.decide``: a
    switch that compares inline picks its regime where no record shows it."""
    package = Path(join.__file__).resolve().parent.parent
    inline = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decide = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                  and n.name == "decide" and path.name == "join.py"]
        skip = {id(n) for d in decide for n in ast.walk(d)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in skip:
                names = [n for op in (node.left, *node.comparators)
                         for n in _threshold_names(op)]
                if names:
                    inline.append(f"{path.relative_to(package.parent)}:{node.lineno} {names}")
    assert inline == []
