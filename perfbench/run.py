"""Benchmark of the crawl4ai_ray engine on a local 2-CPU Ray cluster.

    python3 perfbench/run.py --workload crawl_pages|crawl_links \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  This process starts no Ray itself: it
runs perfbench/worker.py (the Ray driver) and then perfbench/checks.py (the
correctness checks of what the driver produced), bounds each step they
announce with that step's timeout, and on a timeout kills the process
group, runs ``ray stop --force`` and reports the step as a failed
operation.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports BENCHMARK.json's end_to_end metrics, ``--trace 1``
its per_layer metrics.  A JSON line before it gives the hardware block,
the named failures and the metrics under the names used in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

from events import PREFIX

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbw")  # scratch space of one run, listed in .gitignore
WORKLOADS = ("crawl_pages", "crawl_links")
# the Ray driver and the checks; with the kill and `ray stop` after an
# overrun the whole run stays under 180 s
WORKER_DEADLINE_S = 110
CHECKS_DEADLINE_S = 30
STOP_TIMEOUT_S = 10


def hardware() -> dict:
    with open("/proc/cpuinfo") as f:
        models = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    nproc = subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout
    return {
        "nproc": int(nproc),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else "unknown",
        "loadavg_at_launch": load,
    }


def cpu_ticks() -> list[int]:
    """System-wide CPU ticks by state (user, nice, system, idle, iowait,
    irq, softirq, steal, ...), from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until it is empty."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def ray_stop() -> None:
    ray = shutil.which("ray")
    cmd = [ray] if ray else [sys.executable, "-m", "ray.scripts.scripts"]
    subprocess.run(cmd + ["stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=15, check=False)


def run_bounded(script: str, spec: dict, deadline_s: float, log) -> tuple[list[dict], dict]:
    """Run ``perfbench/<script>`` in its own process group, bounding each
    step it announces and the whole process.  Returns its records and its
    failures: the step that overran, or a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [ROOT, os.path.join(ROOT, "tests"), os.environ.get("PYTHONPATH", "")]),
        RAY_USAGE_STATS_ENABLED="0")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", script), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        start_new_session=True,
    )
    records: list[dict] = []
    timed_out = None
    run_deadline = time.monotonic() + deadline_s
    step, step_deadline = None, run_deadline
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            wait = min(step_deadline, run_deadline) - time.monotonic()
            if wait <= 0:
                timed_out = step or script
                break
            if not sel.select(timeout=wait):
                continue
            line = proc.stdout.readline()
            if not line:
                break  # the process exited
            if not line.startswith(PREFIX):
                continue
            rec = json.loads(line[len(PREFIX):])
            records.append(rec)
            if rec["kind"] == "begin":
                step = rec["step"]
                step_deadline = time.monotonic() + rec["timeout"]
            elif rec["kind"] == "end":
                step, step_deadline = None, run_deadline
    finally:
        sel.close()
        if timed_out:
            kill_group(proc.pid)
            ray_stop()
        proc.wait()
        proc.stdout.close()
        kill_group(proc.pid)  # anything the process left behind
    if timed_out:
        return records, {timed_out: "timed out"}
    if proc.returncode != 0:
        return records, {step or script: f"{script} exited with code {proc.returncode}"}
    return records, {}


def summarize(records: list[dict], failures: dict, spec: dict, trace: bool) -> dict:
    """The result from the records of both processes and their failures."""
    crawls = [r for r in records if r["kind"] == "op" and "query" not in r]
    begun = [r["step"] for r in records if r["kind"] == "begin" and r.get("op")]
    checked = {r["op"]: r["reason"] for r in records if r["kind"] == "check"}
    failures = dict(failures)
    failures.update((op, reason) for op, reason in checked.items() if reason)
    for op in begun:
        if op not in checked:
            failures.setdefault(op, "output not checked")
    attempted = max(1, len(begun))

    setup = next((r for r in records if r["kind"] == "setup"), None)
    rss = next((r for r in records if r["kind"] == "rss"), None)
    layers = [r["metrics"] for r in records if r["kind"] == "layers"]

    named: dict[str, float] = {}
    if setup:
        named["setup_s"] = (setup["imports_s"] + statistics.median(setup["init_s"])
                            + setup["warm_s"])
    if crawls:
        named["urls_per_s"] = (sum(r["units"] for r in crawls)
                               / sum(r["wall_s"] for r in crawls))
        named["cpu_s"] = statistics.median(r["cpu_s"] for r in crawls)
    if rss:
        named["driver_peak_rss_mb"] = rss["mb"]

    metrics = {}
    if trace:
        if layers:  # from the driver and from the checks
            merged = {k: v for part in layers for k, v in part.items()}
            extra = set(merged) - {m["name"] for m in spec["per_layer"]}
            if extra:
                raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: {sorted(extra)}")
            for m in spec["per_layer"]:  # layers the workload does not run read 0
                metrics[m["name"]] = {"value": merged.get(m["name"], 0.0), "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            if m["name"] in named:
                metrics[m["name"]] = {"value": named[m["name"]], "unit": m["unit"]}
    return {
        "info": {"hardware": dict(spec["hardware"], ray_cpus=setup["ray_cpus"] if setup else None),
                 "failures": failures, "measured": named},
        "result": {"correct": not failures, "attempted": attempted,
                   "failed": min(attempted, len(failures)), "metrics": metrics},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("crawl4ai_ray/__init__.py", "tests/oracle_bfs.py", "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a crawl4ai_ray checkout, missing {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    spec["hardware"] = hardware()

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ticks0 = cpu_ticks()
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "work": WORK}
    with open(os.path.join(WORK, "run.log"), "w") as log:
        records, failures = run_bounded("worker.py", run, WORKER_DEADLINE_S, log)
        ops = [r for r in records if r["kind"] == "op"]
        more, bad = run_bounded("checks.py", dict(run, ops=ops), CHECKS_DEADLINE_S, log)
    records += more
    failures.update(bad)
    # the hypervisor's share of the machine's CPU time during the run: wall-time
    # metrics drop when it rises
    spent = [b - a for a, b in zip(ticks0, cpu_ticks())]
    spec["hardware"]["steal_share"] = spent[7] / max(1, sum(spent))
    out = summarize(records, failures, spec, bool(args.trace))
    if not out["result"]["metrics"]:
        with open(os.path.join(WORK, "run.log")) as f:
            sys.stderr.write(f.read()[-4000:])
        print(f"perfbench: no metric measured; failures: {out['info']['failures']}",
              file=sys.stderr)
        return 1
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
