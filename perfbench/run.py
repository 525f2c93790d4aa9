"""gltnet benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a gltnet checkout.  One run measures one workload
(see perfbench/README.md) in a fresh worker process: one caller in a
closed loop repeats identical passes for about S seconds, checks every
pass's outputs, and requires every pass to produce the same digest.  The
last line on stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`.

`--smoke` runs every workload at a tiny size in both modes and checks that
every metric named in BENCHMARK.json is emitted with its unit.

Run records (environment, per-pass times, spans of traced runs) are written
to `.perfbench_runs/records/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # set-up samples besides the worker's own
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_PASSES = {0: 3, 1: 4}  # trace mode alternates untraced and traced passes
WORKLOAD_NAMES = ("cli-chain", "im-study", "influence-large", "exact-small")


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- worker (child process) ---------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def worker_main(args):
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from tracer import Tracer
    import workloads
    import numpy
    import scipy

    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    state = workload.prepare(args.seed, args.size, args.workdir)
    setup_s = time.time() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return

    walls, traced_walls, cpus, results, traced_ids = [], [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(walls) + len(traced_walls)
        estimate = _median(walls + traced_walls)
        if done >= MIN_PASSES[args.trace] and elapsed + estimate > args.seconds:
            break
        traced = bool(tracer) and done % 2 == 1
        if tracer:
            tracer.begin_pass(done)
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        c0, t0 = os.times(), time.perf_counter()
        result = workload.run_pass(state)
        wall = time.perf_counter() - t0
        c1 = os.times()
        if traced:
            traced_walls.append(wall)
            traced_ids.append(done)
        else:
            walls.append(wall)
            cpus.append(c1.user + c1.system - c0.user - c0.system)
        results.append(result)
    if tracer:
        tracer.uninstall()

    out = {
        "walls": walls,
        "traced_walls": traced_walls,
        "cpus": cpus,
        "setup_s": setup_s,
        "digests": sorted({r.digest for r in results}),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "problems": sorted({p for r in results for p in r.problems}),
        "fit_rmae": results[0].fit_rmae,
        "im_spread": results[0].im_spread,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    if tracer:
        out["per_layer"], out["unresolved"] = _per_layer(tracer, traced_ids, results,
                                                         walls, traced_walls)
        with open(args.spans_out, "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(out))


def _per_layer(tracer, traced_ids, results, walls, traced_walls):
    per_pass = [tracer.pass_metrics(pid) for pid in traced_ids]
    metrics = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["serialize.bytes"] = results[0].written_bytes
    # set-up makes some workloads' graphs; that time belongs to the layer too
    metrics["graph.generate_cws.self_s"] += tracer.pass_metrics("setup")[
        "graph.generate_cws.self_s"]
    unresolved = []
    for name, value in tracer.percentiles(set(traced_ids)).items():
        if value is None:
            unresolved.append(name)
        metrics[name] = value or 0.0
    metrics["trace.overhead_s"] = _median(traced_walls) - _median(walls)
    return metrics, unresolved


# -- parent --------------------------------------------------------------------------


def _benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise HarnessError(f"{path} not found; run from a gltnet checkout")
    with open(path) as fh:
        return json.load(fh)


def _check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "gltnet", "__init__.py")):
        raise HarnessError(f"no gltnet sources under {ROOT}/src; run from a gltnet checkout")


def _environment():
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def _child(argv, deadline, env):
    """Run one worker process to completion; return its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError(f"run exceeded {RUN_LIMIT_S} s")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0 or not out.strip():
        raise HarnessError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_one(workload, seed, seconds, trace, size="full"):
    """Measure one workload in fresh processes; return (result, record)."""
    _check_checkout()
    spec = _benchmark_spec()
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = os.path.join(RUNS, "work", f"{tag}-{os.getpid()}")
    records = os.path.join(RUNS, "records")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(records, exist_ok=True)
    spans_out = os.path.join(records, f"{tag}-spans.json")
    base = [sys.executable, os.path.abspath(__file__), "--worker",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size, "--workdir", workdir,
            "--spans-out", spans_out]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "environment": _environment(), "loadavg_before": _loadavg()}
    ticks_before = _cpu_ticks()
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            argv = base + ["--probe", "--spawned-at", repr(time.time())]
            setups.append(_child(argv, deadline, env)["setup_s"])
        out = _child(base + ["--spawned-at", repr(time.time())], deadline, env)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    setups.append(out.pop("setup_s"))
    record["loadavg_after"] = _loadavg()
    ticks_after = _cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # share of machine CPU time taken by the hypervisor: a busy neighbour
        record["cpu_steal_frac"] = ((ticks_after[0] - ticks_before[0])
                                    / (ticks_after[1] - ticks_before[1]))
    record["setup_samples_s"] = setups
    record.update(out)

    correct = len(out["digests"]) == 1 and not out["problems"]
    if trace:
        metrics = out["per_layer"]
        wanted = spec["per_layer"]
    else:
        metrics = {
            "wall_s": _median(out["walls"]),
            "setup_s": _median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
            "fit_rmae": out["fit_rmae"],
            "im_spread": out["im_spread"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise HarnessError(f"metrics not measured: {missing}")
    broken = [m["name"] for m in wanted if not math.isfinite(metrics[m["name"]])]
    if broken:
        raise HarnessError(f"metrics are not finite numbers: {broken}")
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    with open(os.path.join(records, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def _summary(record):
    walls = record["walls"]
    passes = len(walls) + len(record["traced_walls"])
    line = (f"perfbench {record['workload']} seed={record['seed']} passes={passes} "
            f"wall_s median={_median(walls):.4f} "
            f"[{min(walls):.4f}, {max(walls):.4f}] n={len(walls)} "
            f"cpu_s median={_median(record['cpus']):.4f} "
            f"steal={record.get('cpu_steal_frac', float('nan')):.3f} "
            f"load {record['loadavg_before']} -> {record['loadavg_after']} "
            f"versions={record['versions']}")
    if record["problems"]:
        line += f" problems={record['problems']}"
    if len(record["digests"]) != 1:
        line += f" digests differ across passes: {record['digests']}"
    return line


def smoke():
    """Every workload at a tiny size, both modes; every metric with its unit."""
    spec = _benchmark_spec()
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, record = run_one(workload, 1, 1, trace, size="smoke")
            emitted = result["metrics"]
            bad = [m["name"] for m in wanted
                   if emitted.get(m["name"], {}).get("unit") != m["unit"]
                   or isinstance(emitted[m["name"]]["value"], bool)
                   or not isinstance(emitted[m["name"]]["value"], (int, float))]
            status = "ok" if result["correct"] and not bad and not result["failed"] else "FAIL"
            ok &= status == "ok"
            print(f"smoke {workload} trace={trace}: {status} "
                  f"{len(result['metrics'])} metrics"
                  + (f", missing or wrong unit: {bad}" if bad else "")
                  + ("" if result["correct"] else f", problems: {record['problems']}"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; check that every metric is emitted")
    # worker-process arguments
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker_main(args)
        return 0
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, record = run_one(name, args.seed, args.seconds, args.trace)
            print(_summary(record))
            results[name] = result
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name in names:
            print(json.dumps({"workload": name, **results[name]}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
