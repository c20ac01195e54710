"""connected_components (stages/dedup.py) — min-label propagation over
near-dup pair tables.

The reference keeps at most pairwise dedup decisions (its crawl cache is
URL-keyed); corpus-level keep-one dedup needs the transitive closure of the
pair relation, which is what a training-data pipeline actually deletes by.
Tests: known graphs (chain exercises multi-round propagation), duplicate /
reversed edges, convergence inside max_iters, and the end-to-end
keep-one survivor set over a planted near-dup corpus.
"""

import pyarrow as pa
import pytest
import ray.data as rd

from crawl4ai_ray.stages import join
from crawl4ai_ray.stages.dedup import connected_components, keep_one_survivors


def _pairs(edges):
    return rd.from_arrow(
        pa.table(
            {
                "id_a": pa.array([a for a, _ in edges], type=pa.int64()),
                "id_b": pa.array([b for _, b in edges], type=pa.int64()),
            }
        )
    )


def _components(result) -> dict[int, int]:
    rows = result.take_all()
    return {r["doc_id"]: r["component_id"] for r in rows}


def _labels_record(regime: str, n_pairs: int) -> str:
    """The ``join.decide`` record of a connected_components call over
    ``n_pairs`` pairs (two symmetric edge rows each)."""
    return (f"connected_components: labels {regime} "
            f"(edge_rows={2 * n_pairs}, threshold={join.UNION_FIND_MAX_ROWS})")


# both size-adaptive regimes: driver union-find (default at test size) and
# distributed star contraction (forced by a zero threshold)
REGIMES = [("union-find", {}), ("star-contraction", {"UNION_FIND_MAX_ROWS": 0})]


@pytest.fixture
def star_contraction(monkeypatch):
    """Force the distributed regime: no edge count fits the union-find."""
    monkeypatch.setattr(join, "UNION_FIND_MAX_ROWS", 0)


@pytest.mark.parametrize("regime", REGIMES)
def test_two_components_and_chain(ray_session, regime, monkeypatch, decisions):
    # chain 1-2-3-4 needs label propagation across rounds; (10,11) is a
    # separate component; node 20 never appears in a pair -> absent.
    # Both size-adaptive regimes must agree: driver union-find (default at
    # this size) and distributed label propagation (forced via threshold=0).
    for name, value in regime[1].items():
        monkeypatch.setattr(join, name, value)
    comp = _components(
        connected_components(_pairs([(1, 2), (2, 3), (3, 4), (10, 11)]))
    )
    assert comp == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}
    assert decisions("dedup") == [_labels_record(regime[0], 4)]


def test_long_chain_converges(ray_session, star_contraction, decisions):
    # diameter >> 2 exercises the iterate-until-flat loop; min-label
    # propagation moves one hop per round, so max_iters must cover the
    # diameter (documented pathology bound in the docstring)
    n = 24
    comp = _components(
        connected_components(_pairs([(i, i + 1) for i in range(n)]), max_iters=n + 2)
    )
    assert comp == {i: 0 for i in range(n + 1)}
    assert decisions("dedup") == [_labels_record("star-contraction", n)]


@pytest.mark.parametrize("regime", REGIMES)
def test_duplicate_and_unordered_edges(ray_session, regime, monkeypatch, decisions):
    for name, value in regime[1].items():
        monkeypatch.setattr(join, name, value)
    comp = _components(
        connected_components(_pairs([(5, 3), (3, 5), (5, 3), (3, 9), (9, 3)]))
    )
    assert comp == {3: 3, 5: 3, 9: 3}
    assert decisions("dedup") == [_labels_record(regime[0], 5)]


def test_chain_diameter_100_converges_in_default_iters(ray_session, star_contraction,
                                                       decisions):
    # the round-4 scale bug: label propagation needed diameter-many rounds,
    # so any chain with diameter > max_iters under-merged.  Star contraction
    # needs ~log(diameter) rounds: a 100-diameter chain must produce EXACT
    # components well inside the default max_iters, in the distributed
    # regime (a zero UNION_FIND_MAX_ROWS forces it).
    n = 100
    comp = _components(connected_components(_pairs([(i, i + 1) for i in range(n)])))
    assert comp == {i: 0 for i in range(n + 1)}
    assert decisions("dedup") == [_labels_record("star-contraction", n)]


def test_max_iters_bounds_work(ray_session, star_contraction, decisions):
    # with max_iters=1 a long chain must still return SOME labeling with
    # every node present (bounded pathology, not a hang) — distributed
    # regime only (the driver union-find has no iteration bound)
    res = connected_components(_pairs([(i, i + 1) for i in range(10)]), max_iters=1)
    comp = _components(res)
    assert set(comp) == set(range(11))
    assert decisions("dedup") == [_labels_record("star-contraction", 10)]


@pytest.mark.parametrize("regime", [{}, {"BROADCAST_MAX_ROWS": 0}])
def test_keep_one_survivors_end_to_end(ray_session, regime, monkeypatch, caplog):
    # planted corpus: docs 0..9; {0,1,2} dups, {5,6} dups -> survivors keep
    # the min id of each component plus all untouched docs.  Both removal
    # regimes must agree: broadcast anti-join (default at this size) and
    # the exchange anti-join (forced via a zero threshold).
    import logging

    from crawl4ai_ray.stages import join

    for name, value in regime.items():
        monkeypatch.setattr(join, name, value)
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(list(range(10)), type=pa.int64())})
    )
    pairs = _pairs([(0, 1), (1, 2), (5, 6)])
    with caplog.at_level(logging.INFO, logger="crawl4ai_ray.stages.join"):
        kept = sorted(
            r["doc_id"] for r in keep_one_survivors(docs, pairs).take_all()
        )
    assert kept == [0, 3, 4, 5, 7, 8, 9]
    assert [r.getMessage() for r in caplog.records if r.name == join.__name__] == [
        "keep_one_survivors: keyed_join anti "
        f"{'exchange' if regime else 'broadcast'} (right_rows=3, "
        f"threshold={join.BROADCAST_MAX_ROWS})"
    ]


def test_keep_one_no_pairs_is_identity(ray_session):
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array([7, 8, 9], type=pa.int64())})
    )
    kept = sorted(r["doc_id"] for r in keep_one_survivors(docs, _pairs([])).take_all())
    assert kept == [7, 8, 9]


def test_unconverged_label_propagation_warns(ray_session, caplog, star_contraction,
                                             decisions):
    """Round-4 ADVICE: exhausting max_iters without a confirm round must
    log a loud warning — under-merged component ids are silently wrong
    otherwise.  (Bounded-pathology RETURN stays the contract.)"""
    # the decisions fixture captures INFO and above, so the warning too
    res = connected_components(_pairs([(i, i + 1) for i in range(10)]), max_iters=1)
    res.materialize()
    assert any("did NOT converge" in r.message for r in caplog.records
               if r.levelname == "WARNING")
    assert decisions("dedup") == [_labels_record("star-contraction", 10)]
