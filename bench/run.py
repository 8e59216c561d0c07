"""Benchmark of the zenosde package: one workload per call.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the package is used from
``src/`` with ``PYTHONPATH=src``, not installed.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics named
in ``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  See ``bench/README.md`` for the workloads and metrics.

This file uses the standard library only.  It times set-up in fresh
processes, runs ``bench/worker.py`` for the measured rounds, and writes each
result set with its provenance under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 160
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({name: "1" for name in SINGLE_THREAD_ENV})
    return env


def _run_worker(root: Path, args, extra=(), timeout=WORKER_TIMEOUT_S) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, *extra]
    proc = subprocess.run(cmd, cwd=root, env=_worker_env(root), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_setup(root: Path, args) -> float:
    return _run_worker(root, args, ["--setup-only"], timeout=60)["setup_s"]


def provenance(root: Path, args, worker: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": worker["versions"]["python"],
        "numpy": worker["versions"]["numpy"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": worker["sizes"],
        "rounds": worker["rounds"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("ensemble_long", "nested_short", "cli_roundtrip"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for bench/selftest.py only")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zenosde" / "__init__.py").is_file():
        print(f"error: no src/zenosde package under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    # set-up is timed in fresh processes, half before and half after the
    # measured rounds, so that one slow spell of the machine moves few samples
    setups = SETUP_REPEATS if not args.trace else 0
    try:
        setup_times = [_run_setup(root, args) for _ in range(setups // 2)]
        worker = _run_worker(root, args)
        setup_times += [_run_setup(root, args) for _ in range(setups - setups // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = worker["attempted"], worker["failed"]
    if args.trace:
        layers, missing = worker["layers"], worker["missing"]
        values = {}
        for m in bench["per_layer"]:
            name = m["name"]
            unobservable = any(name == p or name.startswith(p + ".") for p in missing)
            values[name] = None if unobservable else layers.get(name, 0.0)
        specs = bench["per_layer"]
    else:
        values = {
            "wall_s": worker["wall_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": worker["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        specs = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    prov = provenance(root, args, worker)
    out_dir = root / ".bench_work" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"provenance": prov, "failures": worker["failures"], "round_walls": worker["round_walls"],
              "segments_over_3se": worker["segments_over_3se"], **result}
    (out_dir / f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in worker["failures"]:
        print(f"failed: {failure}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
