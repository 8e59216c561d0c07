"""The benchmark's tracer (``bench/tracing.py``) against the package: every
name it wraps exists, and the wrapped kernel layers are called."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from zenosde import analysis, cli, lyapunov, markov, simulate, system
from zenosde.cli import build_preset
from zenosde.simulate import IntegratorConfig, RngPolicy
from zenosde.system import spec_from_dict


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_round_targets_find_every_name_and_see_the_impulse_loop():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    z = SimpleNamespace(markov=markov, system=system, simulate=simulate, lyapunov=lyapunov,
                        analysis=analysis, cli=cli)
    targets = tracing.round_targets(tracer, z)
    before = [vars(owner).get(attr) for owner, attr, _, _ in targets]
    spec = spec_from_dict(build_preset("case2"))
    tracer.install(targets)
    try:
        assert not tracer.missing
        # two jumps per path: the mark step and the impulse map run in the kernel
        simulate.simulate_ensemble(spec, IntegratorConfig(), 1.5, 3, RngPolicy(0))
    finally:
        tracer.uninstall()
    assert [vars(owner).get(attr) for owner, attr, _, _ in targets] == before
    calls = tracing.summarize(*tracer.take())[0]
    for name in ("markov.sample_ctmc", "markov.sample_dtmc_step", "system.jump_evaluate",
                 "simulate.streams"):
        assert calls.get(name + ".calls", 0) > 0, name
