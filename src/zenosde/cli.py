"""Command line front end.

Subcommands: ``preset`` (emit a bundled example config), ``simulate``
(trajectory CSVs), ``check`` (existence conditions plus the closed-form
stability test), ``probe`` (Monte Carlo probes) and ``rerun`` (reproduce a
previous run from its manifest).

Exit codes separate findings from failures: 0 success, 1 config/usage
error, 2 I/O error, 3 simulation hit the explosion threshold (outputs are
still written), 4 a checked condition fails (the tool worked; the system is
simply not certified).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import (
    detect_blowup,
    probe_mean_square,
    probe_stability_in_probability,
    probe_supermartingale,
    verify_segment_moment_bound,
)
from .lyapunov import LyapunovSpec, ZeroDiffusion, linear_stability_check
from .simulate import (
    IntegratorConfig,
    RngPolicy,
    simulate_path,
    trajectory_to_csv,
)
from .system import ConfigError, check_existence_conditions, read_config, spec_from_dict

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_EXPLODED = 3
EXIT_FINDING = 4

# Bundled example family: a two-regime linear system with exponentially
# decaying (or growing, case 3) impulses on the schedule 2 - 1/k, plus the
# classic deterministic blow-up example with jumps (1 + k^2) x at 1/k.
# Values not fixed by the published example family (the regime generator,
# the mark transition matrix and the initial regime) are marked
# "toolkit-default" in the emitted meta block.
_COMMON = {
    "xi_generator": {"q": [[-1.0, 1.0], [1.0, -1.0]]},
    "eta_transition": {"p": [[0.5, 0.5], [0.5, 0.5]]},
    "schedule": {"kind": "harmonic-to-point", "t_star": 2.0, "c": 1.0, "k_max": 200, "delta_min": 1e-9},
    "horizon": 5.0,
}


def _preset_case(a, b, sign, y0):
    cfg = {
        "drift": {"kind": "linear-per-regime", "values": list(a), "dim": 1},
        "diffusion": {"kind": "linear-per-regime", "values": list(b), "dim": 1},
        "jump": {"kind": "exp-mark-clamped", "alpha": 1.673, "sign": sign, "scale": 1.0},
        "initial": {"x0": [10.0], "y0": y0, "h0": 1},
    }
    cfg.update(json.loads(json.dumps(_COMMON)))
    return cfg


def build_preset(name: str) -> dict:
    if name == "case1":
        cfg = _preset_case((1.0, -0.5), (0.3, 2.1), -1, y0=1)
    elif name == "case2":
        cfg = _preset_case((-1.0, 0.5), (0.3, 2.0), -1, y0=2)
    elif name == "case3":
        cfg = _preset_case((-1.0, 0.5), (0.3, 2.0), +1, y0=2)
    elif name == "intro":
        cfg = {
            "drift": {"kind": "linear-per-regime", "values": [-1.0], "dim": 1},
            "diffusion": {"kind": "linear-per-regime", "values": [0.0], "dim": 1},
            "jump": {"kind": "scale-poly", "scale": 1.0},
            "schedule": {"kind": "harmonic-to-zero", "alpha": 1.0, "k_max": 200, "delta_min": 1e-9},
            "xi_generator": {"q": [[0.0]]},
            "eta_transition": {"p": [[1.0]]},
            "initial": {"x0": [10.0], "y0": 1, "h0": 1},
            "horizon": 4.0,
        }
    else:
        raise ConfigError(f"UnknownPreset: {name!r} (known: intro, case1, case2, case3)")
    cfg["meta"] = {
        "preset": name,
        "sources": {
            "coefficients": "example",
            "jump": "example",
            "schedule": "example",
            "initial.x0": "example",
            "initial.h0": "example",
            "initial.y0": "toolkit-default",
            "xi_generator": "toolkit-default",
            "eta_transition": "toolkit-default",
            "horizon": "toolkit-default",
        },
    }
    return cfg


def _resolve_config(args) -> dict:
    if getattr(args, "preset", None):
        return build_preset(args.preset)
    if getattr(args, "config", None):
        cfg = read_config(Path(args.config))
        spec_from_dict(cfg)  # validation pass with field-level diagnostics
        return cfg
    raise ConfigError("one of --preset or --config is required")


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # a manifest is strict JSON, which has no NaN or infinity
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


# the type of each resolved field a manifest may hold; a command, fresh or
# rerun from a hand-edited manifest, with a field of another type is refused
# up front, naming every such field, instead of failing inside the run or
# writing the value to its manifest
_RESOLVED_TYPES = (
    (("command",), lambda v: isinstance(v, str), "a string"),
    (("seed",), lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    (("paths", "threads"), lambda v: _is_int(v) and v >= 1, "a positive integer"),
    (("record_stride", "segment", "inner"), _is_int, "an integer"),
    (("dt_max", "horizon", "eps1", "epsilon", "v_gamma", "v_beta"), _is_number, "a finite number"),
    (("kmax", "krange"), lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    (("deltas",), _is_numbers, "a list of finite numbers"),
    (("grid",), _is_numbers, "a list of finite times, the last one ending the window"),
    (("eps_search",), lambda v: isinstance(v, bool), "true or false"),
)


def _run(resolved, out_dir: Path | None) -> int:
    """Run a resolved command once its fields pass their type checks."""
    if not isinstance(resolved, dict):
        raise ConfigError("manifest field 'resolved' must be an object")
    bad = [f"field {field!r} must be {kind}, got {resolved[field]!r}"
           for fields, ok, kind in _RESOLVED_TYPES for field in fields
           if field in resolved and not ok(resolved[field])]
    if bad:
        raise ConfigError("; ".join(bad))
    runs = {"simulate": run_simulate, "check": run_check, "probe": run_probe}
    if resolved["command"] not in runs:
        raise ConfigError(f"manifest has unknown command {resolved['command']!r}")
    return runs[resolved["command"]](resolved, out_dir)


def _write_manifest(out_dir: Path, resolved: dict) -> None:
    outputs = {
        p.name: _sha256(p)
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }
    manifest = {
        "tool": "zenosde",
        "tool_version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "resolved": resolved,
        "outputs": outputs,
    }
    _dump_json(manifest, out_dir / "manifest.json")


# ---------------------------------------------------------------------------
# command implementations (shared by the CLI and `rerun`)
# ---------------------------------------------------------------------------

def run_simulate(resolved: dict, out_dir: Path) -> int:
    spec = spec_from_dict(resolved["config"])
    cfg = IntegratorConfig(dt_max=resolved["dt_max"], record_stride=resolved["record_stride"])
    policy = RngPolicy(resolved["seed"])
    horizon = resolved["horizon"]
    any_exploded = False
    for i in range(resolved["paths"]):
        traj = simulate_path(spec, cfg, horizon, i, policy)
        # made only once there is something to write
        out_dir.mkdir(parents=True, exist_ok=True)
        trajectory_to_csv(traj, out_dir / f"traj_{i}.csv")
        any_exploded = any_exploded or traj.status == "exploded"
    _write_manifest(out_dir, resolved)
    return EXIT_EXPLODED if any_exploded else EXIT_OK


def run_check(resolved: dict, out_dir: Path | None) -> int:
    # the stability test's own refusal would read as "skipped", and a search
    # would write a NaN to the manifest
    epsilon = resolved["epsilon"]
    if not 0 < epsilon < math.inf:
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon!r}")
    spec = spec_from_dict(resolved["config"])
    existence = check_existence_conditions(spec)
    written = existence.as_dict()
    report = {"existence": written}
    print("existence conditions")
    print(f"  growth bound (finite C):            {'pass' if existence.growth_ok else 'FAIL'}"
          f"  [C = {written['c_growth']}]")
    print(f"  coefficient Lipschitz (finite L):   {'pass' if existence.lipschitz_ok else 'FAIL'}"
          f"  [L = {written['l_coeff']}]")
    print(f"  impulse Lipschitz summability:      {'pass' if existence.jump_lipschitz_summable else 'FAIL'}"
          f"  [sum L_k = {written['sum_l']}]")
    print(f"  impulse size summability:           {'pass' if existence.jump_size_summable else 'FAIL'}"
          f"  [sum gamma_k = {written['sum_gamma']}]")
    print(f"  tail cutoff balance trend:          {'pass' if existence.tail_trend_ok else 'FAIL'}")
    for eps, n_eps, bal in existence.tail_rows:
        if n_eps is None:
            print(f"    eps={eps:<8g} tail divergent")
        else:
            print(f"    eps={eps:<8g} N_eps={n_eps:<5d} balance={bal:.6f}")

    stability_ok = True
    try:
        # no epsilon asks for the search
        stab = linear_stability_check(spec, None if resolved["eps_search"] else epsilon)
        report["stability"] = stab.as_dict()
        print("\nlinear stability test")
        print(stab.as_text())
        stability_ok = stab.overall_ok
    except (ZeroDiffusion, ValueError) as exc:
        report["stability"] = {"skipped": str(exc)}
        print(f"\nlinear stability test skipped: {exc}")

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _dump_json(report, out_dir / "check_report.json")
        _write_manifest(out_dir, resolved)
    return EXIT_OK if (existence.all_ok and stability_ok) else EXIT_FINDING


def run_probe(resolved: dict, out_dir: Path) -> int:
    spec = spec_from_dict(resolved["config"])
    cfg = IntegratorConfig(dt_max=resolved["dt_max"])
    policy = RngPolicy(resolved["seed"])
    kind = resolved["kind"]
    paths = resolved["paths"]

    # each kind writes <kind>.json, and <kind>.csv of its rows' fields
    fields = None
    if kind == "bound":
        res = verify_segment_moment_bound(spec, resolved["segment"], paths, policy, cfg)
        verdict = (f"segment {res.segment}: lhs CI upper {res.lhs_ci_upper:.6g} vs rhs {res.rhs:.6g} "
                   f"-> {'pass' if res.ok else 'FAIL'}")
    elif kind == "prob":
        res = probe_stability_in_probability(
            spec, resolved["eps1"], resolved["horizon"], paths,
            resolved["deltas"], policy, cfg,
        )
        fields = ["delta", "exceedance", "stderr", "n_paths"]
        verdict = f"exceedance trend verdict: {res.verdict} ({res.notes})"
    elif kind == "meansq":
        res = probe_mean_square(spec, resolved["grid"], paths, policy, cfg)
        fields = ["t", "mean_sq", "stderr", "median_sq", "explosion_fraction"]
        verdict = f"mean-square decay verdict: {res.verdict}"
    elif kind == "supermartingale":
        beta = resolved["v_beta"]
        v = LyapunovSpec(kind="power", gamma=resolved["v_gamma"], beta=beta,
                         regime_values=tuple(range(1, spec.n_regimes + 1)))
        lo, hi = resolved["krange"]
        res = probe_supermartingale(spec, v, range(lo, hi + 1), paths, resolved["inner"], policy, cfg)
        fields = ["k", "t_lo", "t_hi", "ev_k", "ev_next", "diff", "diff_stderr", "n_alive", "ok"]
        verdict = f"skeleton expectation verdict: {res.verdict}"
    elif kind == "blowup":
        res = detect_blowup(spec, resolved["kmax"], resolved["horizon"], paths, policy, cfg)
        fields = ["k_max", "median_sup", "max_sup", "exploded_fraction"]
        verdict = f"blow-up growth verdict: {res.verdict}"
    else:
        raise ConfigError(f"unknown probe kind {kind!r}")
    # the output directory is made only once there is something to write
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(res.as_dict(), out_dir / f"{kind}.json")
    if fields is not None:
        _rows_to_csv(res.rows, fields, out_dir / f"{kind}.csv")
        _print_rows(res.rows, fields)
    print(verdict)
    _write_manifest(out_dir, resolved)
    return EXIT_OK


def _rows_to_csv(rows, fields, path: Path) -> None:
    lines = [",".join(fields)]
    for r in rows:
        lines.append(",".join(_fmt_cell(r[f]) for f in fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _print_rows(rows, fields) -> None:
    cells = [[_short_cell(r[f]) for f in fields] for r in rows]
    widths = [max(len(f), *(len(c[i]) for c in cells)) for i, f in enumerate(fields)]
    print("  ".join(f.rjust(w) for f, w in zip(fields, widths)))
    for c in cells:
        print("  ".join(v.rjust(w) for v, w in zip(c, widths)))


def _short_cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_source_args(p):
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--preset", help="bundled preset name (intro, case1, case2, case3)")


def _parse_list(text: str, conv, option: str) -> list:
    try:
        values = [conv(s) for s in str(text).split(",") if s]
    except ValueError:
        raise ConfigError(f"{option}: expected a comma list of numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{option}: expected at least one number, got {text!r}")
    return values


def _parse_krange(text: str):
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--krange: expected lo:hi, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise :class:`ConfigError`, so that they
    exit 1 as every other config error does; its subparsers are of this class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="zenosde", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preset", help="print a bundled example config as JSON")
    p.add_argument("name")

    p = sub.add_parser("simulate", help="simulate trajectories to CSV")
    _add_source_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in the manifest; does not change how paths run")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--record-stride", type=int, default=10)
    p.add_argument("--out", default="out")

    p = sub.add_parser("check", help="run existence conditions and the stability test")
    _add_source_args(p)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--eps-search", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("probe", help="run a Monte Carlo probe")
    _add_source_args(p)
    p.add_argument("--kind", required=True,
                   choices=["bound", "prob", "meansq", "supermartingale", "blowup"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in the manifest; does not change how paths run")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--segment", type=int, default=1)
    p.add_argument("--kmax", default="5,10,20", help="comma list of truncation depths (blowup)")
    p.add_argument("--eps1", type=float, default=5.0)
    p.add_argument("--deltas", default="1,0.1,0.01", help="comma list of initial norms (prob)")
    p.add_argument("--grid", default="0.5,1,2,3,5", help="comma list of times (meansq)")
    p.add_argument("--krange", default="1:20", help="lo:hi skeleton range (supermartingale)")
    p.add_argument("--inner", type=int, default=100)
    p.add_argument("--v-gamma", type=float, default=1.0)
    p.add_argument("--v-beta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--out", default="out")

    p = sub.add_parser("rerun", help="reproduce a previous run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default="out_rerun")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "preset":
            cfg = build_preset(args.name)
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return EXIT_OK

        if args.command == "simulate":
            cfg_dict = _resolve_config(args)
            horizon = args.horizon if args.horizon is not None else float(cfg_dict["horizon"])
            resolved = {
                "command": "simulate",
                "config": cfg_dict,
                "seed": args.seed,
                "paths": args.paths,
                "horizon": horizon,
                "threads": args.threads,
                "dt_max": args.dt,
                "record_stride": args.record_stride,
            }
            return _run(resolved, Path(args.out))

        if args.command == "check":
            cfg_dict = _resolve_config(args)
            resolved = {
                "command": "check",
                "config": cfg_dict,
                "epsilon": args.epsilon,
                "eps_search": args.eps_search,
            }
            return _run(resolved, Path(args.out) if args.out else None)

        if args.command == "probe":
            cfg_dict = _resolve_config(args)
            spec = spec_from_dict(cfg_dict)
            horizon = args.horizon if args.horizon is not None else float(cfg_dict["horizon"])
            v_beta = args.v_beta
            if v_beta is None:
                b_vals = [abs(v) for v in spec.diffusion.values]
                bmax = max(b_vals)
                v_beta = args.epsilon / bmax ** 2 if bmax > 0 else 1.0
            resolved = {
                "command": "probe",
                "config": cfg_dict,
                "kind": args.kind,
                "seed": args.seed,
                "paths": args.paths,
                "threads": args.threads,
                "dt_max": args.dt,
                "horizon": horizon,
                "segment": args.segment,
                "kmax": _parse_list(args.kmax, int, "--kmax"),
                "eps1": args.eps1,
                "deltas": _parse_list(args.deltas, float, "--deltas"),
                "grid": _parse_list(args.grid, float, "--grid"),
                "krange": list(_parse_krange(args.krange)),
                "inner": args.inner,
                "v_gamma": args.v_gamma,
                "v_beta": v_beta,
                "epsilon": args.epsilon,
            }
            return _run(resolved, Path(args.out))

        if args.command == "rerun":
            manifest = read_config(Path(args.manifest))
            if not isinstance(manifest, dict):
                raise ConfigError(f"{args.manifest}: a manifest must be a JSON object")
            # another version's integrator would not reproduce the outputs; a
            # manifest without a version meets the missing-key checks below
            written_by = manifest.get("tool_version", __version__)
            if written_by != __version__:
                raise ConfigError(f"manifest was written by zenosde {written_by}, this is "
                                  f"zenosde {__version__}; rerun it with {written_by}")
            try:
                return _run(manifest["resolved"], Path(args.out))
            except KeyError as exc:
                raise ConfigError(f"{args.manifest}: missing key {exc}") from None

        raise ConfigError(f"unknown command {args.command!r}")
    except ValueError as exc:  # every input-validation error of the package
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
