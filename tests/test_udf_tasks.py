"""Every ``map_batches`` UDF in the package runs as a task.

A stage whose only state is a cheap object is built once on the driver and
passed as an instance; Ray Data runs it as a task and ships the instance
once per operator.  The only actors the package starts are the host shards.

* The guard test reads the package source: no call passes an actor-pool
  option, and ``HostShard`` is the only ``@ray.remote`` class.
* The 1-CPU test runs queries that used to start actor pools on a fresh
  1-CPU cluster in a child process (``conftest.ray_session`` owns the
  in-process cluster), and compares their rows with the session cluster's.
  An actor pool that holds the only CPU stalls the next operator, so this
  test fails by timeout when a pool comes back.

Run this file directly (``python tests/test_udf_tasks.py``) to print the
1-CPU digests as one JSON line; the repo must be on ``PYTHONPATH``.
"""

import ast
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
from test_queries import SF

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "crawl4ai_ray"
POOL_OPTIONS = {"concurrency", "compute", "fn_constructor_kwargs", "fn_constructor_args"}
# large_part_revenue_bloom follows minhash_neardup_pairs because it is the
# query that stalled behind a leaked pool; media_catalog_crawl had three pools
ONE_CPU_QUERIES = ("minhash_neardup_pairs", "large_part_revenue_bloom",
                   "media_catalog_crawl")
ONE_CPU_TIMEOUT_S = 120


def _is_ray_remote(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (
        isinstance(target, ast.Attribute) and target.attr == "remote"
        and isinstance(target.value, ast.Name) and target.value.id == "ray"
    )


def test_no_actor_pool_options_and_host_shard_is_the_only_actor():
    pool_calls, actor_classes = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                used = {k.arg for k in node.keywords} & POOL_OPTIONS
                if used:
                    pool_calls.append(f"{path.relative_to(REPO)}:{node.lineno} {sorted(used)}")
                # ray.remote(SomeClass): an actor class made without a decorator
                if _is_ray_remote(node) and any(
                    isinstance(a, ast.Name) and a.id[:1].isupper() for a in node.args
                ):
                    actor_classes.append(f"{path.relative_to(REPO)}:{node.lineno}")
            elif isinstance(node, ast.ClassDef) and any(
                _is_ray_remote(d) for d in node.decorator_list
            ):
                actor_classes.append(node.name)
    assert pool_calls == []
    assert actor_classes == ["HostShard"]


def _digest(result) -> list:
    """(row count, sha256 of the sorted canonical rows) of a query result."""
    if not isinstance(result, pa.Table):
        result = pa.Table.from_pylist(result.take_all())
    cols = sorted(result.column_names)
    rows = sorted(
        json.dumps([r[c] for c in cols], default=repr, sort_keys=True)
        for r in result.select(cols).to_pylist()
    )
    return [len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest()]


def _run_queries() -> dict:
    from crawl4ai_ray.pipelines import queries as Q

    return {name: _digest(Q.QUERIES[name](SF)) for name in ONE_CPU_QUERIES}


def test_pool_free_queries_finish_on_one_cpu(ray_session):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO), os.environ.get("PYTHONPATH")) if p
    ))
    child = subprocess.Popen(
        [sys.executable, __file__], cwd=REPO, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=ONE_CPU_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the child leads its own process group, which holds its Ray
        # cluster; never `ray stop`, which would end the session cluster too
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise AssertionError(
            f"{ONE_CPU_QUERIES} did not finish on 1 CPU in {ONE_CPU_TIMEOUT_S} s"
        )
    assert child.returncode == 0, err[-4000:]
    got = json.loads(out.strip().splitlines()[-1])
    assert got == _run_queries()


if __name__ == "__main__":
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             object_store_memory=256 * 1024**2)
    try:
        print(json.dumps(_run_queries()), flush=True)
    finally:
        ray.shutdown()
