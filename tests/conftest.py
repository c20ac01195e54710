import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Tests exercise queries at sf0.001; oracles whose SQL inlines literals
# retrained from data (knn_cosine_ivf centroids) must train on the SAME
# scale factor the queries run at.  The driver harness leaves this unset
# and gets the sf0.01 default, matching its own query runs.
os.environ.setdefault("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.001")


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield
    ray.shutdown()


@pytest.fixture(autouse=True)
def _release_leaked_actors():
    """Ray Data frees a finished actor pool by dropping its actor handles;
    handles caught in reference cycles live until the cyclic GC runs.  The
    package's own stages run as tasks, but some tests still pass a stage
    class with ``concurrency=1`` to check the callable-class contract, and
    each such pool holds a CPU of the one 4-CPU session cluster until its
    actor is freed.  Collect after every test, so leaked pools cannot add
    up and starve a later test."""
    yield
    import gc

    gc.collect()


@pytest.fixture
def decisions(caplog):
    """``decisions(module)``: the messages of the ``join.decide`` records
    that switches in the package module ``module`` (``join``, ``dedup``,
    ``queries``, ``bucketcap``) logged since the previous call for that
    module.  ``keyed_join`` logs on the join logger, every other switch on
    its child named after the module; INFO is on for all of them."""
    import logging

    join_log = "crawl4ai_ray.stages.join"
    caplog.set_level(logging.INFO, logger=join_log)
    seen: dict[str, int] = {}

    def _since_last(module: str) -> list[str]:
        name = join_log if module == "join" else f"{join_log}.{module}"
        msgs = [r.getMessage() for r in caplog.records if r.name == name]
        start, seen[module] = seen.get(module, 0), len(msgs)
        return msgs[start:]

    return _since_last
