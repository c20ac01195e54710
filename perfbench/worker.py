"""Ray driver process of one benchmark run.

Started by run.py, which bounds every step with a timeout.  This process
sets up Ray, runs the workload's operations in a closed loop and leaves
their outputs under the work dir for checks.py; it streams one record per
event (events.py), which run.py turns into the result.

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "seconds": ...,
                                  "trace": 0|1, "work": <dir>}'
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402
import ray.data  # noqa: E402

from crawl4ai_ray.pipelines.crawl import CrawlEngine  # noqa: E402
from crawl4ai_ray.pipelines.queries import QUERIES  # noqa: E402
from crawl4ai_ray.sources.corpus import SyntheticTransport, robots_map  # noqa: E402

import inputs  # noqa: E402
from events import emit  # noqa: E402

# Python, Ray and engine imports: the set-up part that cannot be repeated
# inside one process
IMPORTS_S = time.perf_counter() - _T_IMPORT

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 75
CRAWL_TIMEOUT_S = 60
QUERY_TIMEOUT_S = 45
LAYERS_TIMEOUT_S = 60
EPOCH_SLOTS = 6  # per-epoch metrics e0..e5
OP_SECONDS = 12  # a crawl takes 7-12 s on a 2-CPU cluster of a 4-vCPU Xeon guest
OBJECT_STORE_BYTES = 400 << 20
# AF_UNIX path limit (107) minus Ray's "/session_<date>_<pid>/sockets/plasma_store"
MAX_RAY_TEMP_LEN = 107 - 72


def tree_cpu_ticks() -> dict[int, int]:
    """utime + stime per process, for the driver and every live descendant
    (every Ray process it started), from /proc."""
    children: dict[int, list[int]] = defaultdict(list)
    used: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:  # exited while we scanned
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        pid = int(name)
        children[int(fields[1])].append(pid)
        used[pid] = int(fields[11]) + int(fields[12])
    out, stack = {}, [os.getpid()]
    while stack:
        pid = stack.pop()
        if pid in used:
            out[pid] = used[pid]
        stack.extend(children.get(pid, ()))
    return out


def cpu_since(start: dict[int, int]) -> float:
    """CPU seconds the process tree used since ``start``, counted over the
    processes alive now.  Processes that exit in between (actors of an
    earlier engine, which die asynchronously after ``ray.kill``) drop out
    instead of subtracting their lifetime total."""
    now = tree_cpu_ticks()
    return sum(t - start.get(pid, 0) for pid, t in now.items()) / os.sysconf("SC_CLK_TCK")


def quiesce(settle_s: float = 0.5, limit_s: float = 5.0) -> None:
    """Wait until no process of the tree has exited for ``settle_s``:
    actors killed by an engine's shutdown die asynchronously, and must not
    die inside the next timed operation."""
    deadline = time.monotonic() + limit_s
    alive = set(tree_cpu_ticks())
    quiet_since = time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.1)
        now = set(tree_cpu_ticks())
        if alive - now:
            quiet_since = time.monotonic()
        elif time.monotonic() - quiet_since >= settle_s:
            return
        alive = now


def self_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class PlanLog(logging.Handler):
    """Counts all-to-all operators in the execution plans Ray Data logs,
    i.e. the exchanges of every Dataset a query executes."""

    ALL_TO_ALL = re.compile(r"\b(?:AllToAllOperator|Hash\w*Operator|JoinOperator)\[")

    def __init__(self):
        super().__init__(logging.INFO)
        self.exchanges = 0

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if "Execution plan of Dataset" in msg:
            self.exchanges += len(self.ALL_TO_ALL.findall(msg))


# ------------------------------------------------------------------ set-up

def ray_init(work: str) -> None:
    temp = os.path.join(work, "ray")
    kwargs = {"_temp_dir": temp} if len(temp) <= MAX_RAY_TEMP_LEN else {}
    if not kwargs:
        print(f"checkout path too long for Ray sockets under {temp}; "
              "using Ray's default temp dir", file=sys.stderr)
    ray.init(
        address="local", num_cpus=inputs.RAY_CPUS, include_dashboard=False,
        log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES, **kwargs,
    )
    ray.data.DataContext.get_current().enable_progress_bars = False


def _load_engine(batch):
    import crawl4ai_ray.pipelines.crawl  # noqa: F401
    import crawl4ai_ray.pipelines.queries  # noqa: F401

    return batch


def warm_up(workload: str, work: str) -> None:
    """Spawn the worker pool, load the engine in it and pay what the first
    operation on a fresh cluster pays on top of the rest (Ray Data's first
    execution and first all-to-all, first-use imports in the workers; about
    6 CPU-s on a crawl): a small map + groupby, then a tiny crawl with the
    workload's config."""
    ray.data.range(4 * inputs.RAY_CPUS, override_num_blocks=2 * inputs.RAY_CPUS) \
        .map_batches(_load_engine).groupby("id").count().take_all()
    _, cfg = inputs.crawl_inputs(workload, 0)
    params = inputs.WARMUP_CORPUS
    engine = CrawlEngine(SyntheticTransport(params), cfg, os.path.join(work, "warm"),
                         robots_bodies=robots_map(params))
    try:
        engine.run(params.seeds())
    finally:
        engine.shutdown()


def set_up(workload: str, work: str, repeats: int) -> None:
    """Bring the Ray cluster up ``repeats`` times (keeping the last one),
    then warm it up once."""
    emit("begin", step="setup", timeout=SETUP_TIMEOUT_S)
    init_s = []
    for k in range(repeats):
        t = time.perf_counter()
        ray_init(work)
        init_s.append(time.perf_counter() - t)
        if k < repeats - 1:
            ray.shutdown()
    t = time.perf_counter()
    warm_up(workload, work)
    emit("setup", imports_s=IMPORTS_S, init_s=init_s, warm_s=time.perf_counter() - t,
         ray_cpus=ray.cluster_resources().get("CPU", 0))
    emit("end", step="setup")


# --------------------------------------------------------------- workloads

def crawl_op(name: str, params, cfg, robots: dict, out: str) -> dict:
    """One full crawl with a fresh engine; its checkpoint dir (docs, metrics)
    and, on the parity path, its seen set stay under ``out``."""
    quiesce()
    emit("begin", step=name, timeout=CRAWL_TIMEOUT_S, op=True)
    engine = CrawlEngine(SyntheticTransport(params), cfg, out, robots_bodies=robots)
    try:
        cpu0, drv0, t0 = tree_cpu_ticks(), self_cpu_s(), time.perf_counter()
        summary = engine.run(params.seeds())
        wall = time.perf_counter() - t0
        cpu, drv = cpu_since(cpu0), self_cpu_s() - drv0
        if cfg.exact_seen:
            with open(os.path.join(out, "seen.json"), "w") as f:
                json.dump([u for shard in engine.seen.dump_all() for u in shard], f)
    finally:
        engine.shutdown()
    rec = {"op": name, "out": out, "wall_s": wall, "cpu_s": cpu, "driver_cpu_s": drv,
           "units": summary["fetched"], "epochs": summary["epochs"]}
    emit("op", **rec)
    emit("end", step=name)
    return rec


def query_op(name: str, tables: str, plans: PlanLog, work: str) -> dict:
    """One query; its rows stay in ``<work>/out/<name>.parquet``."""
    op = name
    emit("begin", step=op, timeout=QUERY_TIMEOUT_S, op=True)
    plans.exchanges = 0
    cpu0, t0 = tree_cpu_ticks(), time.perf_counter()
    result = QUERIES[name](tables)
    rows = result if isinstance(result, pa.Table) else result.take_all()
    wall = time.perf_counter() - t0
    cpu = cpu_since(cpu0)
    if not isinstance(rows, pa.Table):
        rows = pa.Table.from_pylist(rows)
    out = os.path.join(work, "out", f"{op}.parquet")
    pq.write_table(rows, out)
    rec = {"op": op, "query": name, "out": out, "wall_s": wall, "cpu_s": cpu,
           "rows_out": rows.num_rows, "exchanges": plans.exchanges}
    emit("op", **rec)
    emit("end", step=op)
    return rec


def closed_loop(seconds: float, one_op) -> list:
    """One client running operations back to back.  ``seconds`` buys one
    operation per OP_SECONDS: a fixed count, so that a slow phase of the
    machine does not also shrink the work a run measures."""
    return [one_op(i) for i in range(max(1, int(seconds // OP_SECONDS)))]


def run_crawl(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    params, cfg = inputs.crawl_inputs(workload, seed)
    robots = robots_map(params)
    if not trace:
        closed_loop(seconds, lambda i: crawl_op(
            f"crawl#{i}", params, cfg, robots, os.path.join(work, f"crawl{i}")))
        return {}

    import layers as layer_timing

    emit("begin", step="layers", timeout=LAYERS_TIMEOUT_S)
    reach = inputs.reachable_pages(params, robots)
    layers = layer_timing.page_layers(params, cfg, robots, reach, seed, work)
    emit("end", step="layers")
    op = crawl_op("crawl#0", params, cfg, robots, os.path.join(work, "crawl0"))

    out = {k: v for k, v in layers.items() if k != "links_per_page"}
    out["crawl.driver_cpu_s"] = op["driver_cpu_s"]
    out["crawl.epochs"] = op["epochs"]
    if op["epochs"] > EPOCH_SLOTS:
        raise RuntimeError(f"{op['epochs']} epochs exceed the {EPOCH_SLOTS} metric slots")
    # per-page layer work the epoch pipelines run, spread over Ray's CPUs;
    # link normalization is canonicalize_batch on the scale path and the
    # driver fold's normalize_url_for_deep_crawl on the parity path
    link_ms = (layers["urlnorm.us_per_link"] / 1e3 if cfg.deterministic
               else layers["canonicalize.ms_per_link"])
    per_page_ms = (layers["fetch.stage_ms_per_page"] + layers["extract.ms_per_page"]
                   + layers["enrich.ms_per_page"] + layers["checkpoint.sink_ms_per_page"]
                   + layers["links_per_page"] * link_ms)
    busy_s = per_page_ms * op["units"] / inputs.RAY_CPUS / 1e3
    out["crawl.overhead_frac"] = 1 - busy_s / op["wall_s"]
    return out


def run_queries(seed: int, work: str) -> dict:
    """One pass of the query mix (traced runs only): per-query wall time,
    rows out and exchanges."""
    tables = inputs.write_tables(os.path.join(work, "tables"), seed)
    os.makedirs(os.path.join(work, "out"))
    plans = PlanLog()
    logging.getLogger("ray.data").addHandler(plans)
    quiesce()
    out = {}
    for name in inputs.QUERY_MIX:
        rec = query_op(name, tables, plans, work)
        for key in ("wall_s", "rows_out", "exchanges"):
            out[f"queries.{name}.{key}"] = rec[key]
    return out


def main() -> None:
    args = json.loads(sys.argv[1])
    workload, seed, work = args["workload"], args["seed"], args["work"]
    trace = bool(args["trace"])
    set_up(workload, work, 1 if trace else SETUP_REPEATS)
    layer_metrics = run_crawl(workload, seed, args["seconds"], trace, work)
    # the driver's peak, before anything else runs in this process
    emit("rss", mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if trace:
        layer_metrics.update(run_queries(seed, work))
        emit("layers", metrics=layer_metrics)
    ray.shutdown()


if __name__ == "__main__":
    main()
