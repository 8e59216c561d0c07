"""Smoke self-test of the benchmark's own code at tiny sizes.

    python3 bench/selftest.py

Run from the root of a source checkout.  It asserts that

* every workload prints every metric named in ``BENCHMARK.json`` with its
  unit, end-to-end metrics untraced and per-layer metrics traced, and that
  each per-layer metric reads non-zero on at least one workload;
* a deliberately wrong expected exit code makes the run report a failure;
* in a directory holding only ``BENCHMARK.json`` and ``bench/``, the
  benchmark exits non-zero without printing a result.

It takes about 30 seconds and uses the standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 3


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_every_metric_printed(bench: dict) -> None:
    nonzero = set()
    for w in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            expected = {m["name"]: m["unit"] for m in bench[group]}
            printed = {name: m["unit"] for name, m in res["metrics"].items()}
            assert printed == expected, (w["name"], trace, set(printed) ^ set(expected))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (w["name"], name, m)
                if m["value"]:
                    nonzero.add(name)
    never = {m["name"] for m in bench["per_layer"]} - nonzero
    assert not never, f"per-layer metrics zero on every workload: {sorted(never)}"


def check_wrong_exit_code_fails() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker

    ctx = worker.build_context(worker.load_modules(), "cli_roundtrip", "tiny", SEED,
                               ROOT / ".bench_work" / "selftest")
    good = worker.measure(ctx, 0.0)
    assert good["failed"] == 0, good["failures"]
    ctx.expected_exit_codes[2] = 0  # simulate on case3 explodes and exits 3
    bad = worker.measure(ctx, 0.0)
    assert bad["failed"] > 0 and (bad["attempted"] - bad["failed"]) / bad["attempted"] < 1.0, bad
    assert any("exits 0 (got 3)" in f for f in bad["failures"]), bad["failures"]


def check_bare_directory_fails(bench: dict) -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, bench["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.environ.update({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_every_metric_printed(bench)
    check_wrong_exit_code_fails()
    check_bare_directory_fails(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
