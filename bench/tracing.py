"""In-memory span recorder for the zenosde benchmark.

Spans come only from wrappers installed at run time on module-level names
and class attributes of the ``zenosde`` package; nothing under ``src/`` is
edited.  Modules import functions by name, so a function is wrapped in every
namespace that calls it.  The wrappers are installed for a traced round and
removed after it, so untraced rounds run the original code.

A span is ``[name, start, end, parent, root]``: ``parent`` is the enclosing
span record (or ``None``) and ``root`` numbers the top-level call it belongs
to.  Spans opened on a worker thread with no open span of their own take the
main thread's innermost open span as parent, so a thread pool's windows
count as children of the probe that started the pool.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter, defaultdict

PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


class CountingNormals:
    """Generator proxy that counts the rows of every ``standard_normal`` draw.

    It draws from the generator it wraps, so the random stream is consumed
    exactly as without the proxy.
    """

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        out = self._gen.standard_normal(size, *args, **kwargs)
        shape = getattr(out, "shape", ())
        self._tracer.count("simulate.steps", shape[0] if shape else 1)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.missing: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._main_ident = threading.get_ident()
        self._roots = itertools.count()
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, after=None):
        """``fn`` recording one span per call; ``name`` may be a callable of
        the call's positional arguments; ``after(result, args)`` counts."""
        spans = self.spans
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            root = parent[4] if parent is not None else next(self._roots)
            rec = [name(args) if callable(name) else name, 0.0, 0.0, parent, root]
            stack.append(rec)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
                spans.append(rec)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap ``(owner, attr, span name, after)`` targets until :meth:`uninstall`.

        A target whose attribute no longer exists is recorded in
        :attr:`missing` and its metrics report null.
        """
        for owner, attr, name, after in targets:
            if attr not in vars(owner):
                self.missing.add(name if isinstance(name, str) else attr)
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(original, name, after))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counters = self.spans[:], Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

PROBES = ("verify_segment_moment_bound", "probe_mean_square", "probe_stability_in_probability",
          "probe_supermartingale", "detect_blowup")


def setup_targets(z):
    """Targets for the set-up phase: config parsing and schedule realization."""
    return [
        (z.system, "spec_from_dict", "system.spec_from_dict", None),
        (z.system.SystemSpec, "realization", "system.realization", None),
    ]


def round_targets(tracer, z):
    """Targets for one traced round; ``z`` holds the six zenosde modules."""

    def after_window(res, args):
        tracer.count("simulate.impulses", len(res.jump_events))
        tracer.count("simulate.explosions", int(res.exploded))

    def after_ctmc(chain, args):
        tracer.count("markov.switches", len(chain.switch_times))

    def after_streams(bundle, args):
        bundle.wiener = CountingNormals(bundle.wiener, tracer)

    def after_csv(result, args):
        tracer.count("simulate.csv.bytes", os.path.getsize(args[1]))

    window = "simulate.window"
    targets = [
        (z.simulate, "simulate_window", window, after_window),
        (z.analysis, "simulate_window", window, after_window),
        (z.lyapunov, "simulate_window", window, after_window),
        (z.simulate, "sample_ctmc", "markov.sample_ctmc", after_ctmc),
        (z.simulate, "sample_dtmc_step", "markov.sample_dtmc_step", None),
        (z.system.JumpFamily, "evaluate", "system.jump_evaluate", None),
        (z.simulate.RngPolicy, "path_streams", "simulate.streams", after_streams),
        (z.simulate.RngPolicy, "aux_streams", "simulate.streams", after_streams),
        (z.lyapunov.LyapunovSpec, "value", "lyapunov.value", None),
        (z.lyapunov, "discrete_lyapunov_operator", "lyapunov.discrete_operator", None),
        (z.cli, "linear_stability_check", "lyapunov.linear_stability_check", None),
        (z.cli, "check_existence_conditions", "system.check_existence_conditions", None),
        (z.cli, "spec_from_dict", "system.spec_from_dict", None),
        (z.cli, "simulate_path", "simulate.path", None),
        (z.cli, "trajectory_to_csv", "simulate.csv", after_csv),
        (z.cli, "main", lambda args: "cli." + str(args[0][0]), None),
    ]
    for probe in PROBES:
        targets.append((z.analysis, probe, "analysis.probe", None))
        targets.append((z.cli, probe, "analysis.probe", None))
    return targets


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _covered(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, counters) -> tuple:
    """Per-name calls, busy and self time plus the counters of one round, and
    the durations of its ``simulate.window`` spans.

    Self time is a span's duration minus the part of it that its direct
    children cover.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[id(rec[3])].append((rec[1], rec[2]))
    out: dict = defaultdict(float)
    windows = []
    for rec in spans:
        name, t0, t1 = rec[0], rec[1], rec[2]
        dur = t1 - t0
        kids = children.get(id(rec))
        self_time = dur - _covered(t0, t1, kids) if kids else dur
        out[name + ".calls"] += 1
        out[name + ".busy_s"] += dur
        out[name + ".self_s"] += self_time
        if name.startswith("cli."):
            out["cli.self_s"] += self_time
        if name == "simulate.window":
            windows.append(dur)
    out.update(counters)
    return dict(out), windows


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of sorted values."""
    n = len(sorted_values)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest of :data:`PERCENTILES` with at least ten of ``n`` samples beyond it."""
    best = PERCENTILES[0]
    for q in PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    return best


def write_spans(path, spans) -> None:
    """Write spans as one JSON array per line: name, start, end, parent, root."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    t_zero = min((rec[1] for rec in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            parent = index.get(id(rec[3])) if rec[3] is not None else None
            fh.write('["%s",%.9f,%.9f,%s,%d]\n' % (
                rec[0], rec[1] - t_zero, rec[2] - t_zero,
                "null" if parent is None else parent, rec[4]))
