"""Workload process of the zenosde benchmark.

``bench/run.py`` starts this file with ``PYTHONPATH=src`` and single-threaded
numpy.  It sets a workload up once, then repeats the workload's fixed work
(one *round*) until the requested seconds have passed, checks every round's
outputs and prints one JSON line with the timings, counts and failures.
With ``--setup-only`` it times the set-up alone and exits, so that set-up
can be timed in fresh processes.

Every round of a run uses the same seed-derived inputs, so every round must
produce the same output digest.  In a traced run, untraced and traced rounds
alternate; the traced rounds record spans (see ``tracing.py``) and must
produce the untraced rounds' digest too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing

WORKLOADS = ("ensemble_long", "nested_short", "cli_roundtrip")

SIZES = {
    "full": {
        "ensemble_paths": 200,
        "nested_outer": 60,
        "nested_inner": 10,
        "operator_mc": 40,
        "cli_sim_paths": 2,
        "cli_meansq_paths": 60,
        "cli_bound_paths": 200,
        "cli_blowup_paths": 20,
    },
    "tiny": {
        "ensemble_paths": 8,
        "nested_outer": 20,
        "nested_inner": 2,
        "operator_mc": 4,
        "cli_sim_paths": 1,
        "cli_meansq_paths": 8,
        "cli_bound_paths": 10,
        "cli_blowup_paths": 3,
    },
}

PRESETS = {
    "ensemble_long": ("case2",),
    "nested_short": ("case2",),
    "cli_roundtrip": ("case1", "case2", "case3", "intro"),
}

MEANSQ_GRID = (0.5, 1.0, 2.0, 3.0, 5.0)
SKELETON_KS = range(1, 21)
V_BETA = 0.025
CLI_THREADS = 2
EXPECTED_EXIT_CODES = (0, 0, 3, 0, 4, 0, 0, 0, 0)
_NORMAL = statistics.NormalDist()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def load_modules() -> SimpleNamespace:
    from zenosde import analysis, cli, lyapunov, markov, simulate, system
    return SimpleNamespace(markov=markov, system=system, simulate=simulate,
                           lyapunov=lyapunov, analysis=analysis, cli=cli)


def build_context(z, workload: str, size: str, seed: int, workdir: Path) -> SimpleNamespace:
    """Specs and schedule realizations for ``workload``; the integrator's
    boundary cache is left to fill inside the timed rounds."""
    specs = {}
    for name in PRESETS[workload]:
        spec = z.system.spec_from_dict(z.cli.build_preset(name))
        spec.realization()
        specs[name] = spec
    return SimpleNamespace(z=z, workload=workload, size=SIZES[size], seed=seed, specs=specs,
                           workdir=workdir, expected_exit_codes=list(EXPECTED_EXIT_CODES))


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted (public calls and checks) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, what: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def round_ensemble_long(ctx, tally):
    z = ctx.z
    res = tally.call(z.analysis.probe_mean_square, ctx.specs["case2"], MEANSQ_GRID,
                     ctx.size["ensemble_paths"], z.simulate.RngPolicy(ctx.seed), threads=1)
    rows = res.rows
    tally.check("median_sq(t=5) < 1e-3 * median_sq(t=0.5)",
                rows[-1]["median_sq"] < 1e-3 * rows[0]["median_sq"])
    tally.check("explosion_fraction is 0 at every grid time",
                all(r["explosion_fraction"] == 0.0 for r in rows))
    tally.check("every mean-square row is finite",
                all(math.isfinite(v) for r in rows for v in r.values()))
    return _digest(res.as_dict()), {}


def round_nested_short(ctx, tally):
    z = ctx.z
    spec = ctx.specs["case2"]
    v = z.lyapunov.LyapunovSpec(kind="power", gamma=1.0, beta=V_BETA)
    policy = z.simulate.RngPolicy(ctx.seed)
    rep = tally.call(z.analysis.probe_supermartingale, spec, v, SKELETON_KS,
                     ctx.size["nested_outer"], ctx.size["nested_inner"], policy)
    rows = rep.rows
    tally.check("every skeleton row has n_alive > 0", all(r["n_alive"] > 0 for r in rows))
    # The probe's verdict makes a one-sided 3-SE test on each of 20 segments,
    # most of which have a true drift near zero, so it fails on about 1 seed
    # in 40 with a correct program.  The check holds the 20 tests together to
    # the false-alarm rate of one 3-SE test instead (Sidak correction).
    z_max = _NORMAL.inv_cdf((1.0 - _NORMAL.cdf(-3.0)) ** (1.0 / len(rows)))
    tally.check(f"every skeleton diff within {z_max:.2f} SE (3 SE over {len(rows)} segments)",
                all(r["diff"] <= z_max * r["diff_stderr"] for r in rows))
    estimates = [
        tally.call(z.lyapunov.discrete_lyapunov_operator, spec, v, (spec.y0, spec.h0, spec.x0),
                   k, ctx.size["operator_mc"], policy)
        for k in SKELETON_KS
    ]
    tally.check("every operator estimate and stderr is finite",
                all(math.isfinite(x) for pair in estimates for x in pair))
    extra = {"segments_over_3se": sum(not r["ok"] for r in rows)}
    return _digest({"probe": rep.as_dict(), "operator": estimates}), extra


def _cli_commands(ctx, work: Path) -> list:
    s, seed = ctx.size, str(ctx.seed)
    return [
        ["simulate", "--preset", "case1", "--seed", seed, "--paths", str(s["cli_sim_paths"]),
         "--out", str(work / "sim_case1")],
        ["rerun", str(work / "sim_case1" / "manifest.json"), "--out", str(work / "sim_case1_rerun")],
        ["simulate", "--preset", "case3", "--seed", seed, "--paths", str(s["cli_sim_paths"]),
         "--out", str(work / "sim_case3")],
        ["check", "--preset", "case2", "--out", str(work / "check_case2")],
        ["check", "--preset", "case1", "--out", str(work / "check_case1")],
        ["probe", "--preset", "case2", "--kind", "meansq", "--seed", seed,
         "--paths", str(s["cli_meansq_paths"]), "--threads", "1", "--out", str(work / "meansq_t1")],
        ["probe", "--preset", "case2", "--kind", "meansq", "--seed", seed,
         "--paths", str(s["cli_meansq_paths"]), "--threads", str(CLI_THREADS),
         "--out", str(work / "meansq_t2")],
        ["probe", "--preset", "case2", "--kind", "bound", "--segment", "1", "--seed", seed,
         "--paths", str(s["cli_bound_paths"]), "--out", str(work / "bound")],
        ["probe", "--preset", "intro", "--kind", "blowup", "--seed", seed,
         "--paths", str(s["cli_blowup_paths"]), "--out", str(work / "blowup")],
    ]


def _manifest(d: Path, drop_threads: bool = False) -> dict:
    m = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
    m.pop("created_at", None)
    if drop_threads:
        m["resolved"].pop("threads", None)
    return m


def _manifest_matches_files(d: Path) -> bool:
    outputs = json.loads((d / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    files = {p.name for p in d.iterdir() if p.is_file() and p.name != "manifest.json"}
    return set(outputs) == files and all(
        hashlib.sha256((d / name).read_bytes()).hexdigest() == h for name, h in outputs.items())


def _same_outputs(a: Path, b: Path, drop_threads: bool = False) -> bool:
    """Byte-identical outputs and equal manifests, ``created_at`` ignored."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    if _manifest(a, drop_threads) != _manifest(b, drop_threads):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names if n != "manifest.json")


def _dir_digest(work: Path) -> tuple:
    h = hashlib.sha256()
    total = 0
    for p in sorted(work.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        total += len(data)
        h.update(str(p.relative_to(work)).encode() + b"\0")
        h.update(_digest(_manifest(p.parent)).encode() if p.name == "manifest.json" else data)
    return h.hexdigest(), total


def round_cli_roundtrip(ctx, tally):
    cli = ctx.z.cli
    work = ctx.workdir / "round"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        codes, walls = [], []
        for argv in _cli_commands(ctx, work):
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(tally.call(cli.main, argv))
            walls.append(time.perf_counter() - t0)
        for i, (code, expected) in enumerate(zip(codes, ctx.expected_exit_codes)):
            tally.check(f"command {i + 1} exits {expected} (got {code})", code == expected)
        bound = json.loads((work / "bound" / "bound.json").read_text(encoding="utf-8"))
        tally.check("bound probe ok", bound["ok"] is True)
        blowup = json.loads((work / "blowup" / "blowup.json").read_text(encoding="utf-8"))
        tally.check("blowup verdict", blowup["verdict"] is True)
        for d in sorted(p for p in work.iterdir() if p.is_dir()):
            tally.check(f"manifest hashes match the files in {d.name}", _manifest_matches_files(d))
        tally.check("rerun reproduces simulate byte for byte",
                    _same_outputs(work / "sim_case1", work / "sim_case1_rerun"))
        tally.check("meansq outputs identical for --threads 1 and --threads 2",
                    _same_outputs(work / "meansq_t1", work / "meansq_t2", drop_threads=True))
        digest, written = _dir_digest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return digest, {"thread_speedup": walls[5] / walls[6], "bytes_written": written}


ROUNDS = {
    "ensemble_long": round_ensemble_long,
    "nested_short": round_nested_short,
    "cli_roundtrip": round_cli_roundtrip,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_round(ctx, tally, reference):
    """One round; that it completes without an exception is itself a check."""
    try:
        digest, extra = ROUNDS[ctx.workload](ctx, tally)
    except Exception as exc:  # the run goes on and reports the failure
        tally.check(f"round completes ({type(exc).__name__}: {exc})", False)
        return None, {}
    tally.check("round completes", True)
    if reference is not None:
        tally.check("same seed gives the same output digest", digest == reference)
    return digest, extra


def measure(ctx, seconds: float, tracer=None, setup_summary=None) -> dict:
    """Repeat rounds for ``seconds``; with a tracer, every second round is traced."""
    tally = Tally()
    walls, cpus, extras = [], [], []
    traced_walls, summaries, windows = [], [], []
    last_spans: list = []
    reference = None
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(tracing.round_targets(tracer, ctx.z))
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            digest, extra = run_round(ctx, tally, reference)
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.uninstall()
        reference = reference or digest
        if traced:
            traced_walls.append(t1 - t0)
            last_spans, counters = tracer.take()
            summary, durations = tracing.summarize(last_spans, counters)
            summaries.append(summary)
            windows.extend(durations)
        else:
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            extras.append(extra)
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or traced_walls):
            break

    out = {
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures[:20],
        "rounds": len(walls) + len(traced_walls),
        "wall_s": statistics.median(walls),
        "round_walls": walls,
        "segments_over_3se": max((e.get("segments_over_3se", 0) for e in extras), default=0),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(setup_summary or {}, summaries, windows, walls, cpus,
                                      traced_walls, extras)
        out["missing"] = sorted(tracer.missing)
        trace_path = ctx.workdir.parent / f"trace-{ctx.workload}.jsonl"
        tracing.write_spans(trace_path, last_spans)
    return out


def layer_metrics(setup_summary, summaries, windows, walls, cpus, traced_walls, extras) -> dict:
    """Per-layer values: the traced set-up plus the median traced round."""
    keys = set(setup_summary).union(*summaries)
    values = {k: setup_summary.get(k, 0.0) + statistics.median(s.get(k, 0.0) for s in summaries)
              for k in keys}
    wall = statistics.median(walls)
    windows.sort()
    if windows:
        tail = tracing.tail_percentile(len(windows))
        values["simulate.window.p50_us"] = tracing.percentile(windows, 50.0) * 1e6
        values["simulate.window.tail_us"] = tracing.percentile(windows, tail) * 1e6
        values["simulate.window.tail_pct"] = tail
        values["simulate.window.samples"] = len(windows)
        # steps come from the wiener stream; zero steps over many windows
        # means a later code layout draws normals where they are not seen
        steps = values.get("simulate.steps", 0.0)
        values["simulate.steps"] = steps or None
        values["simulate.steps_per_s"] = steps / wall if steps else None
    calls = values.get("simulate.streams.calls", 0.0)
    if calls:
        values["simulate.streams.us_per_call"] = values["simulate.streams.busy_s"] / calls * 1e6
    speedups = [e["thread_speedup"] for e in extras if "thread_speedup" in e]
    if speedups:
        values["simulate.ensemble.thread_speedup"] = statistics.median(speedups)
    written = [e["bytes_written"] for e in extras if "bytes_written" in e]
    if written:
        values["cli.bytes_written"] = statistics.median(written)
    values["process.cpu_s"] = statistics.median(cpus)
    values["process.cpu_util"] = statistics.median(c / w for c, w in zip(cpus, walls))
    values["tracing.overhead_ratio"] = statistics.median(traced_walls) / wall
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path.cwd() / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    z = load_modules()
    if tracer is not None:
        tracer.install(tracing.setup_targets(z))
    try:
        ctx = build_context(z, args.workload, args.size, args.seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - t_start}))
        return 0

    setup_summary = tracing.summarize(*tracer.take())[0] if tracer is not None else None
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(ctx, args.seconds, tracer, setup_summary)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    out["sizes"] = ctx.size
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
