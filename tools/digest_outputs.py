"""SHA-256 digests of zenosde's outputs, one line per case.

    python3 tools/digest_outputs.py [--root DIR] [--quick]

The package is imported from ``DIR/src`` (by default, this checkout's).
Each line is ``<case> <sha256>``.  A change meant to keep every output bit
for bit is checked by running the script on the checkout before the change
and on the one after, and diffing the two outputs: they must be equal.

The cases run at master seeds 0, 17 and 2**40 + 3:

- ``simulate_batch`` on case1, case2, case3, intro, a constant-drift
  (additive) system and a two-dimensional one, over four windows, with
  ``path_streams`` and ``aux_streams_batch`` bundles, under five work
  budgets: 7 paths under the default, one chunk of all paths, chunks kept,
  and normals drawn again; and 60 paths under a budget whose blocks run in
  groups of several whole paths, and on the many-jump windows keep the
  products of only their first groups.  Every result field, each path's
  jump records up to the jumps it applied, and each live path's generator
  states after the window
- ``simulate_ensemble`` and ``simulate_path`` on the four presets
- the mean-square, probability and blow-up probes, and the segment bound
- the supermartingale probe and the discrete Lyapunov operator
- the nested estimators again (the segment bound, the operator, and the
  supermartingale probe on case2 and on case3, where some and then all
  outer paths have exploded) in batches of ``SMALL_CAP`` rows, which split
  an outer path's continuations across batches.  The cap is set on
  ``lyapunov`` and, in a tree that keeps its own copy, on ``analysis``
- the CLI's files (manifests without ``created_at``), stdout and exit code
  for ``simulate``, ``rerun``, ``check`` and every ``probe`` kind

``--quick`` keeps one seed.  Floats are hashed by their exact bits; a case
that raises is hashed by its exception's type and message.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (0, 17, 2 ** 40 + 3)
WINDOWS = ((1.0, 1.7), (1.5, 1.83), (0.0, 1.99), (0.0, 5.0))
# name: work budget in bytes (None for the package's own), paths per batch
BUDGETS = (("default", None, 7), ("one-chunk", 2 ** 30, 7), ("kept", 300 * 128, 7),
           ("drawn-again", 2 ** 12, 7), ("groups", 3 * 2 ** 18, 60))
# rows per batch of the nested Monte Carlo estimators in the small-cap cases
SMALL_CAP = 7


def canon(value, out: list) -> None:
    """Append an exact, unambiguous byte form of ``value`` to ``out``."""
    if isinstance(value, np.ndarray):
        out.append(f"A{value.dtype.str}{value.shape}".encode())
        out.append(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_)):
        out.append(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        out.append(f"I{int(value)};".encode())
    elif isinstance(value, (float, np.floating)):
        out.append(f"F{float(value).hex()};".encode())
    elif isinstance(value, str):
        out.append(f"S{len(value)}:{value}".encode())
    elif value is None:
        out.append(b"N")
    elif isinstance(value, dict):
        out.append(f"D{len(value)}".encode())
        for key in sorted(value, key=str):
            canon(str(key), out)
            canon(value[key], out)
    elif isinstance(value, (list, tuple)):
        out.append(f"L{len(value)}".encode())
        for item in value:
            canon(item, out)
    elif dataclasses.is_dataclass(value):
        canon({f.name: getattr(value, f.name) for f in dataclasses.fields(value)}, out)
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(value) -> str:
    out: list = []
    canon(value, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or its exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a raise is an output too
        return {"raised": type(exc).__name__, "message": str(exc)}


def specs(z) -> dict:
    build = z.cli.build_preset
    out = {name: z.system.spec_from_dict(build(name)) for name in ("case1", "case2", "case3", "intro")}
    additive = build("case2")
    additive["drift"] = {"kind": "constant", "values": [0.4, -0.2], "dim": 1}
    out["additive"] = z.system.spec_from_dict(additive)
    dim2 = build("case2")
    dim2["drift"] = {"kind": "linear-per-regime", "values": [-0.5, 0.3], "dim": 2}
    dim2["diffusion"] = {"kind": "linear-per-regime", "values": [0.4, 0.9], "dim": 2}
    dim2["initial"] = {"x0": [1.0, -2.0], "y0": 1, "h0": 1}
    out["dim2"] = z.system.spec_from_dict(dim2)
    return out


def batch_cases(z, all_specs, seeds):
    simulate = z.simulate
    cfg = simulate.IntegratorConfig(dt_max=2e-3)
    own_budget = simulate._WORK_BYTES
    for budget_name, budget, n in BUDGETS:
        simulate._WORK_BYTES = own_budget if budget is None else budget
        try:
            for name, spec in all_specs.items():
                y = [1 + j % spec.n_regimes for j in range(n)]
                for t0, t1 in WINDOWS:
                    rec = np.array([t0, (t0 + t1) / 2, t1])
                    for seed in seeds:
                        policy = simulate.RngPolicy(seed)
                        for kind in ("path", "aux"):
                            if kind == "path":
                                streams = [policy.path_streams(j) for j in range(n)]
                            else:
                                streams = policy.aux_streams_batch(6, [(j, 1) for j in range(n)])
                            res = outcome(simulate.simulate_batch, spec, cfg, t0, t1, spec.x0, y,
                                          spec.h0, streams, record_times=rec)
                            if isinstance(res, simulate.BatchResult):
                                res = path_results(res, streams)
                            yield (f"batch/{budget_name}/{name}/{t0:g}-{t1:g}/{seed}/{kind}", res)
        finally:
            simulate._WORK_BYTES = own_budget


def path_results(res, streams) -> dict:
    """A batch's result fields, with each path's jump records cut at the
    ``n_jumps`` it applied (entries past them are no part of its result and
    depend on where the block's impulse loop ended), and each live path's
    generator states after the window."""
    out = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    for name in ("marks", "x_before", "x_after"):
        out[name] = [row[:n] for row, n in zip(out[name], res.n_jumps.tolist())]
    out["states"] = [[g.bit_generator.state for g in (bundle.chain, bundle.mark, bundle.wiener)]
                     for bundle, exploded in zip(streams, res.exploded) if not exploded]
    return out


def model_cases(z, all_specs, seeds):
    simulate, analysis, lyapunov = z.simulate, z.analysis, z.lyapunov
    cfg = simulate.IntegratorConfig()
    presets = ("case1", "case2", "case3", "intro")
    v = lyapunov.LyapunovSpec(kind="power", gamma=1.0, beta=0.025)
    for seed in seeds:
        policy = simulate.RngPolicy(seed)
        for name in presets:
            spec = all_specs[name]
            horizon = 4.0 if name == "intro" else 5.0
            yield (f"ensemble/{name}/{seed}",
                   outcome(simulate.simulate_ensemble, spec, cfg, horizon, 60, policy))
            yield (f"path/{name}/{seed}",
                   outcome(simulate.simulate_path, spec, cfg, horizon, 3, policy,
                           record_times=np.array([0.5, 1.0, 2.5])))
        yield (f"meansq/case2/{seed}", outcome(analysis.probe_mean_square, all_specs["case2"],
                                               (0.5, 1.0, 2.0, 3.0, 5.0), 200, policy))
        yield (f"meansq/case1/{seed}", outcome(analysis.probe_mean_square, all_specs["case1"],
                                               (0.5, 1.0, 5.0), 60, policy))
        yield (f"prob/case1/{seed}", outcome(analysis.probe_stability_in_probability,
                                             all_specs["case1"], 100.0, 1.99, 300, [1.0, 0.1],
                                             policy))
        yield (f"blowup/intro/{seed}", outcome(analysis.detect_blowup, all_specs["intro"],
                                               [5, 10, 20], 1.0, 20, policy))
        for name in ("case1", "case2"):
            for k in (1, 2):
                yield (f"bound/{name}/{k}/{seed}",
                       outcome(analysis.verify_segment_moment_bound, all_specs[name], k, 200, policy))
        yield (f"supermartingale/case2/{seed}",
               outcome(analysis.probe_supermartingale, all_specs["case2"], v, range(1, 21), 60, 10,
                       policy))
        for name in presets:
            spec = all_specs[name]
            for k in (1, 3, 10):
                yield (f"operator/{name}/{k}/{seed}",
                       outcome(lyapunov.discrete_lyapunov_operator, spec, v,
                               (spec.y0, spec.h0, spec.x0), k, 40, policy))


def small_cap_cases(z, all_specs, seeds):
    analysis, lyapunov = z.analysis, z.lyapunov
    v = lyapunov.LyapunovSpec(kind="power", gamma=1.0, beta=0.025)
    homes = [m for m in (lyapunov, analysis) if hasattr(m, "_INNER_BUNDLES")]
    own = [m._INNER_BUNDLES for m in homes]
    for m in homes:
        m._INNER_BUNDLES = SMALL_CAP
    try:
        for seed in seeds:
            policy = z.simulate.RngPolicy(seed)
            for name in ("case1", "case2"):
                for k in (1, 2):
                    yield (f"bound-cap{SMALL_CAP}/{name}/{k}/{seed}",
                           outcome(analysis.verify_segment_moment_bound, all_specs[name], k, 50,
                                   policy))
            for name in ("case2", "case3"):
                yield (f"supermartingale-cap{SMALL_CAP}/{name}/{seed}",
                       outcome(analysis.probe_supermartingale, all_specs[name], v,
                               [1, 2, 9, 10, 15], 20, 10, policy))
            for name in ("case1", "case2", "case3"):
                spec = all_specs[name]
                for k in (1, 3):
                    yield (f"operator-cap{SMALL_CAP}/{name}/{k}/{seed}",
                           outcome(lyapunov.discrete_lyapunov_operator, spec, v,
                                   (spec.y0, spec.h0, spec.x0), k, 40, policy))
    finally:
        for m, cap in zip(homes, own):
            m._INNER_BUNDLES = cap


def cli_cases(z, seeds):
    commands = []
    for seed in map(str, seeds):
        commands += [
            (f"simulate/case1/{seed}", ["simulate", "--preset", "case1", "--seed", seed,
                                         "--paths", "2"]),
            (f"simulate/case3/{seed}", ["simulate", "--preset", "case3", "--seed", seed,
                                         "--paths", "2"]),
            (f"meansq/{seed}", ["probe", "--preset", "case2", "--kind", "meansq", "--seed", seed,
                                "--paths", "60", "--threads", "2"]),
            (f"bound/{seed}", ["probe", "--preset", "case2", "--kind", "bound", "--segment", "1",
                               "--seed", seed, "--paths", "200"]),
            (f"blowup/{seed}", ["probe", "--preset", "intro", "--kind", "blowup", "--seed", seed,
                                "--paths", "20"]),
            (f"prob/{seed}", ["probe", "--preset", "case1", "--kind", "prob", "--seed", seed,
                              "--paths", "200", "--horizon", "1.99", "--eps1", "100"]),
            (f"supermartingale/{seed}", ["probe", "--preset", "case2", "--kind", "supermartingale",
                                         "--seed", seed, "--paths", "30", "--inner", "10",
                                         "--krange", "1:5"]),
        ]
    commands += [(f"check/{name}", ["check", "--preset", name])
                 for name in ("case1", "case2", "case3", "intro")]
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands:
            out = Path(tmp) / name.replace("/", "_")
            yield f"cli/{name}", run_cli(z, argv + ["--out", str(out)], out, tmp)
            manifest = out / "manifest.json"
            if manifest.exists():
                again = out.with_name(out.name + "_rerun")
                yield (f"cli/{name}/rerun",
                       run_cli(z, ["rerun", str(manifest), "--out", str(again)], again, tmp))


def run_cli(z, argv, out: Path, tmp: str) -> list:
    """Exit code, printed text and the SHA-256 of each file written to ``out``
    (a manifest without ``created_at``) of one CLI command."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = z.cli.main(argv)
    files = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("created_at", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            files[path.name] = hashlib.sha256(data).hexdigest()
    # the output paths differ between runs; the printed text is hashed
    # without them
    text = sink.getvalue().replace(str(out), "<out>").replace(tmp, "<tmp>")
    return [code, text, files]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                    help="source checkout whose src/ holds the zenosde package")
    ap.add_argument("--quick", action="store_true", help="master seed 0 only")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.root).resolve() / "src"))
    import zenosde.analysis
    import zenosde.cli
    import zenosde.lyapunov
    import zenosde.simulate
    import zenosde.system
    z = zenosde
    seeds = SEEDS[:1] if args.quick else SEEDS
    all_specs = specs(z)
    with np.errstate(all="ignore"):
        cases = itertools.chain(batch_cases(z, all_specs, seeds),
                                model_cases(z, all_specs, seeds),
                                small_cap_cases(z, all_specs, seeds), cli_cases(z, seeds))
        for case, value in cases:
            print(case, digest(value), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
