"""Hybrid Euler-Maruyama integrator producing cadlag trajectories.

The regime path is sampled first with exact holding times, and every switch
time and every scheduled jump time becomes a step boundary, so no event is
straddled by a step.  Within a step the regime is constant and the update is

    x <- x + a(t, y, x) dt + b(t, y, x) sqrt(dt) Z,   Z standard normal.

For the declarative coefficient families this update is affine in ``x``,
which lets a whole inter-jump segment be evaluated with cumulative
products/sums instead of a Python time loop; a sequential fallback handles
the (vanishingly rare) case of a degenerate cumulative product.

:func:`simulate_batch` is the one integration primitive: it runs many paths
over one window per call, and :func:`simulate_window` is its one-path case.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .markov import sample_ctmc, sample_dtmc_step
from .system import SystemSpec

_CASCADE_LIMIT = 1e250
_CHUNK_STEPS = 8192

# the hash constants of numpy.random.SeedSequence
_MASK32 = 0xFFFFFFFF
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715


class ConfigInvalid(ValueError):
    """Integrator configuration failed validation."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size policy and explosion threshold.

    ``refine_near_star`` caps the step at half the remaining distance to the
    next jump (down to a floor of ``1e-6 * dt_max``) so the impulses piling
    up before a concentration point are each hit exactly with locally
    refined resolution.  ``overflow_threshold`` marks a path as exploded,
    which stops it cleanly instead of overflowing floats.
    """

    dt_max: float = 1e-3
    refine_near_star: bool = True
    record_stride: int = 10
    overflow_threshold: float = 1e12

    def __post_init__(self):
        # a NaN step never ends the step loop
        if not 0 < self.dt_max < math.inf:
            raise ConfigInvalid("dt_max must be positive and finite")
        if not 0 < self.overflow_threshold < math.inf:
            raise ConfigInvalid("overflow_threshold must be positive and finite")
        if self.record_stride < 1:
            raise ConfigInvalid("record_stride must be >= 1")


@dataclass(frozen=True)
class RngPolicy:
    """Deterministic stream derivation from one master seed.

    Path ``i`` of a plain ensemble draws from three child streams (regime
    chain, marks, Wiener increments) derived from ``(master_seed, i)``;
    auxiliary consumers (nested Monte Carlo, oracles) use longer keys, and
    their bundle aliases one generator three times.  The derivation is
    independent of execution order, so any degree of parallelism yields
    identical results.

    The batch primitive :func:`simulate_batch` gives every path its own
    bundle and keeps a lone path's draw order on it in each window: the
    regime chain first, then one standard normal per step and coordinate,
    then one mark uniform per impulse the path reaches.  A path's bits
    therefore do not depend on which batch it runs in, nor on its position
    there.
    """

    master_seed: int = 0

    def path_streams(self, path_index: int) -> "StreamBundle":
        seq = np.random.SeedSequence((self.master_seed, path_index))
        return StreamBundle(*[np.random.default_rng(s) for s in seq.spawn(3)])

    def aux_streams(self, tag: int, *key: int) -> "StreamBundle":
        # auxiliary windows are one-shot; a single shared stream suffices and
        # is much cheaper to derive than three spawned children
        rng = np.random.default_rng(np.random.SeedSequence((self.master_seed, tag, *key)))
        return StreamBundle(rng, rng, rng)

    def aux_streams_batch(self, tag: int, keys) -> list:
        """``[self.aux_streams(tag, *key) for key in keys]``, derived in one pass.

        ``keys`` is a list of equal-length keys, or a 2-D integer array with
        one key per row, whose elements lie in ``[0, 2**64)``.  Every
        generator starts in the state ``SeedSequence((master_seed, tag,
        *key))`` gives it, so its draws are bit for bit those of
        :meth:`aux_streams`.  The pass has a fixed cost of about 0.3 ms and
        pays off from about 15 keys on.
        """
        if not len(keys):
            return []
        arr = keys if isinstance(keys, np.ndarray) else np.array(keys, dtype=np.uint64)
        if arr.ndim != 2 or arr.dtype.kind not in "iu" or (arr.size and arr.min() < 0):
            raise ValueError("keys must be equal-length keys of non-negative integers")
        arr = arr.astype(np.uint64)
        prefix = _uint32_words(self.master_seed) + _uint32_words(tag)
        high = arr >> np.uint64(32)
        big = high != 0
        # an element of 2**32 or more is two entropy words, so keys are mixed
        # in groups that share one layout of their words
        if big.any():
            layouts, group = np.unique(big, axis=0, return_inverse=True)
        else:
            layouts, group = big[:1], np.zeros(len(arr), dtype=np.int64)
        states = np.empty((len(arr), 4), dtype=np.uint64)
        for g, layout in enumerate(layouts.tolist()):
            rows = np.flatnonzero(group.ravel() == g)
            cols = [np.full(rows.size, w, dtype=np.uint32) for w in prefix]
            for c, two in enumerate(layout):
                cols.append(arr[rows, c].astype(np.uint32))  # the low word
                if two:
                    cols.append(high[rows, c].astype(np.uint32))
            states[rows] = _seed_states(np.column_stack(cols))
        np.random.bit_generator.ISeedSequence.register(_SeedState)
        gens = [np.random.Generator(np.random.PCG64(_SeedState(s))) for s in states]
        return [StreamBundle(g, g, g) for g in gens]

    def aux_generator(self, tag: int, *key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.master_seed, tag, *key)))

    def derive(self, *key: int) -> "RngPolicy":
        """Deterministically derived sub-policy for an auxiliary ensemble."""
        state = np.random.SeedSequence((self.master_seed, *key)).generate_state(1, np.uint64)
        return RngPolicy(master_seed=int(state[0]))


@dataclass
class StreamBundle:
    chain: np.random.Generator
    mark: np.random.Generator
    wiener: np.random.Generator


class _SeedState:
    """Seed sequence whose ``generate_state(4, np.uint64)``, all that PCG64
    asks of it, was computed in advance.

    Its use registers it as a ``numpy.random.bit_generator.ISeedSequence``;
    subclassing that here would import ``numpy.random`` with this module,
    about 20 ms that a run without random draws need not pay.
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the four uint64 words of a PCG64 seed are held")
        return self.state


def _uint32_words(value: int) -> list:
    """The uint32 words, least significant first, that ``SeedSequence``
    makes of one non-negative entropy integer."""
    value = int(value)
    if value < 0:
        raise ValueError("expected a non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for every row of
    ``words`` (uint32, one entropy per row), as array operations.

    This is numpy's algorithm with its pool of four words: hash the first
    words into the pool, mix every pool word into every other, mix in the
    remaining words, then hash the pool out into eight words.  The hash
    constant advances on every hash whatever the data, so one scalar serves
    all rows; uint32 array arithmetic wraps as numpy's C code does.
    """
    n, length = words.shape
    const = _SS_INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _SS_MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _SS_MIX_L - y * _SS_MIX_R
        return value ^ (value >> 16)

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < length else zeros) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, length):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    out = np.empty((n, 8), dtype=np.uint32)
    const = _SS_INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _SS_MULT_B & _MASK32
        value = value * const
        out[:, i] = value ^ (value >> 16)
    # pairs of words read as little-endian uint64, as numpy does
    return out.astype("<u4").view("<u8").astype(np.uint64)


@dataclass
class JumpEventRecord:
    k: int
    time: float
    mark: int
    x_before: np.ndarray
    x_after: np.ndarray


@dataclass
class Trajectory:
    """Cadlag sample path: decimated samples plus the full jump event log.

    The sample recorded at a jump time is the post-jump value; the pre-jump
    state lives in ``jump_events``.  ``status`` is ``"completed"`` or
    ``"exploded"`` (with ``explosion_time`` set and samples ending there).
    """

    times: np.ndarray
    states: np.ndarray            # (n_samples, dim)
    regimes: np.ndarray
    events: list
    jump_events: list
    status: str
    explosion_time: float | None
    sup_norm: float

    def state_at_end(self) -> np.ndarray:
        return self.states[-1]


# ---------------------------------------------------------------------------
# step boundary construction
# ---------------------------------------------------------------------------

def _segment_interior(s: float, e: float, dt_max: float, refine: bool) -> list:
    """Interior step boundaries strictly between ``s`` and ``e``."""
    pts = []
    floor = dt_max * 1e-6
    t = s
    while True:
        rem = e - t
        if refine:
            if rem <= 2.0 * floor:
                break
            dt = min(dt_max, max(rem / 2.0, floor))
        else:
            if rem <= dt_max * (1.0 + 1e-9):
                break
            dt = dt_max
        t = t + dt
        if t >= e:
            break
        pts.append(t)
    return pts


def _base_boundaries(realization, t0: float, t1: float, dt_max: float, refine: bool):
    """Shared (path-independent) boundaries: jumps plus macro/refined steps.

    Returns the boundaries, the window's jump times and indices ``k``, and
    the jumps' positions among the boundaries.  Cached on the realization
    object keyed by the window parameters (the nested probes revisit the
    same windows millions of times).
    """
    cache = realization.__dict__.setdefault("_boundary_cache", {})
    key = (t0, t1, dt_max, refine)
    hit = cache.get(key)
    if hit is not None:
        return hit
    jumps = realization.jumps_in(t0, t1)
    pts = [t0]
    cur = t0
    for _, tau in jumps:
        pts.extend(_segment_interior(cur, tau, dt_max, refine))
        pts.append(tau)
        cur = tau
    if cur < t1:
        pts.extend(_segment_interior(cur, t1, dt_max, False))
        pts.append(t1)
    base = np.asarray(pts, dtype=float)
    jump_times = np.asarray([tau for _, tau in jumps], dtype=float)
    jump_ks = np.asarray([k for k, _ in jumps], dtype=np.int64)
    hit = (base, jump_times, jump_ks, np.searchsorted(base, jump_times))
    if len(cache) < 4096:
        cache[key] = hit
    return hit


def _coeff_tables(spec: SystemSpec):
    """Per-regime (a_lin, b_lin, a_con, b_con) lookup arrays, cached on the spec."""
    tables = spec.__dict__.get("_coeff_tables")
    if tables is None:
        rng_ids = range(1, spec.n_regimes + 1)
        tables = (
            np.asarray([spec.drift.linear_rate(r) for r in rng_ids]),
            np.asarray([spec.diffusion.linear_rate(r) for r in rng_ids]),
            np.asarray([spec.drift.constant_part(r) for r in rng_ids]),
            np.asarray([spec.diffusion.constant_part(r) for r in rng_ids]),
        )
        object.__setattr__(spec, "_coeff_tables", tables)
    return tables


@dataclass
class WindowResult:
    x_end: np.ndarray
    y_end: int
    h_end: int
    exploded: bool
    explosion_time: float | None
    sup_norm: float
    jump_events: list
    record_values: np.ndarray | None      # (n_record, dim); rows after explosion are NaN
    record_alive: np.ndarray | None       # bool per record time
    path: tuple | None                    # (times, X, regimes, event labels) when collected


@dataclass
class BatchResult:
    """Outcome of :func:`simulate_batch`; the leading axis of each array is the path.

    ``explosion_time`` is NaN where a path did not explode.  Path ``p``
    applied the window's first ``n_jumps[p]`` impulses; their marks and
    pre/post-jump states are ``marks[p, :n]``, ``x_before[p, :n]`` and
    ``x_after[p, :n]`` (later entries are meaningless).
    """

    x_end: np.ndarray                     # (P, dim)
    y_end: np.ndarray                     # (P,)
    h_end: np.ndarray                     # (P,)
    exploded: np.ndarray                  # (P,) bool
    explosion_time: np.ndarray            # (P,)
    sup_norm: np.ndarray                  # (P,)
    jump_times: np.ndarray                # (J,) scheduled jumps inside the window
    jump_ks: np.ndarray                   # (J,)
    n_jumps: np.ndarray                   # (P,)
    marks: np.ndarray                     # (P, J)
    x_before: np.ndarray                  # (P, J, dim)
    x_after: np.ndarray                   # (P, J, dim)
    record_values: np.ndarray | None      # (P, n_record, dim); NaN at and after explosion
    record_alive: np.ndarray | None       # (P, n_record)
    paths: list | None                    # per path (times, X, regimes, event labels)

    def window(self, p: int) -> WindowResult:
        """Path ``p`` as a :class:`WindowResult`, jump event log included."""
        n = int(self.n_jumps[p])
        events = [
            JumpEventRecord(k=k, time=t, mark=m, x_before=before, x_after=after)
            for k, t, m, before, after in zip(
                self.jump_ks[:n].tolist(), self.jump_times[:n].tolist(),
                self.marks[p, :n].tolist(), self.x_before[p, :n], self.x_after[p, :n])
        ]
        exploded = bool(self.exploded[p])
        return WindowResult(
            x_end=self.x_end[p],
            y_end=int(self.y_end[p]),
            h_end=int(self.h_end[p]),
            exploded=exploded,
            explosion_time=float(self.explosion_time[p]) if exploded else None,
            sup_norm=float(self.sup_norm[p]),
            jump_events=events,
            record_values=None if self.record_values is None else self.record_values[p],
            record_alive=None if self.record_alive is None else self.record_alive[p],
            path=None if self.paths is None else self.paths[p],
        )


def simulate_window(
    spec: SystemSpec,
    cfg: IntegratorConfig,
    t0: float,
    t1: float,
    x: np.ndarray,
    y: int,
    h: int,
    streams: StreamBundle,
    record_times: np.ndarray | None = None,
    collect_path: bool = False,
    force_sequential: bool = False,
) -> WindowResult:
    """Integrate one path over ``(t0, t1]`` from state ``(x, y, h)``.

    ``h`` is the mark after the last jump at or before ``t0``; every
    scheduled jump inside the window steps the mark chain and applies the
    impulse map at the pre-jump state.  This is :func:`simulate_batch` with
    a single path.
    """
    res = simulate_batch(spec, cfg, t0, t1, np.atleast_1d(np.asarray(x, dtype=float)), y, h,
                         [streams], record_times, collect_path, force_sequential)
    return res.window(0)


def simulate_batch(
    spec: SystemSpec,
    cfg: IntegratorConfig,
    t0: float,
    t1: float,
    x: np.ndarray,
    y,
    h,
    streams,
    record_times: np.ndarray | None = None,
    collect_path: bool = False,
    force_sequential: bool = False,
) -> BatchResult:
    """Integrate ``len(streams)`` paths over ``(t0, t1]`` in one call.

    Path ``p`` starts from ``(x[p], y[p], h[p])`` (``x``, ``y`` and ``h``
    broadcast to ``(P, dim)``, ``(P,)``, ``(P,)``) and draws only from its
    own bundle ``streams[p]``, in the order of a lone path: its regime chain,
    then one normal per step and coordinate, then one mark per jump it
    reaches.  Every arithmetic step is the lone path's elementwise operation,
    so a path's result is bit for bit the same in any batch, at any position.
    Bundles must not be shared between paths.

    Each path's step grid (the shared base grid plus its own switch and
    record times) is padded to a common length with zero-length steps, whose
    factor is exactly ``1 + a*0 + b*0*Z = 1``, so one ``cumprod`` along the
    step axis gives every path's segment products.  A path whose products
    leave ``[1/_CASCADE_LIMIT, _CASCADE_LIMIT]`` (or every path, with
    ``force_sequential``) is walked step by step instead.
    """
    if not -math.inf < t0 < t1 < math.inf:
        raise ConfigInvalid("window must be finite with positive length")
    n_paths = len(streams)
    if n_paths < 1:
        raise ConfigInvalid("a batch needs at least one path")
    t0, t1 = float(t0), float(t1)
    x = _rows(x, (n_paths, spec.dim), float)
    y = _rows(y, n_paths, np.int64)
    h = _rows(h, n_paths, np.int64)
    base, jump_times, jump_ks, base_jidx = _base_boundaries(
        spec.realization(), t0, t1, cfg.dt_max, cfg.refine_near_star
    )
    rec = None if record_times is None else np.asarray(record_times, dtype=float)
    # chunks of about _CHUNK_STEPS steps keep a large batch's work arrays small
    per_chunk = max(1, _CHUNK_STEPS // base.size)
    with np.errstate(all="ignore"):  # an exploding path is a status, not a warning
        parts = [
            _integrate(spec, cfg, t0, t1, base, jump_times, jump_ks, base_jidx, rec,
                       x[lo : lo + per_chunk], y[lo : lo + per_chunk], h[lo : lo + per_chunk],
                       streams[lo : lo + per_chunk], collect_path, force_sequential)
            for lo in range(0, n_paths, per_chunk)
        ]
    if len(parts) == 1:
        return parts[0]
    joined = {}
    for f in fields(BatchResult):
        values = [getattr(part, f.name) for part in parts]
        if f.name in ("jump_times", "jump_ks") or values[0] is None:
            joined[f.name] = values[0]
        elif isinstance(values[0], list):
            joined[f.name] = [v for part in values for v in part]
        else:
            joined[f.name] = np.concatenate(values)
    return BatchResult(**joined)


def _rows(value, shape, dtype) -> np.ndarray:
    """A new array of ``shape`` holding ``value`` broadcast to it."""
    out = np.empty(shape, dtype=dtype)
    out[...] = value
    return out


def _integrate(spec, cfg, t0, t1, base, jump_times, jump_ks, base_jidx, rec, x, y, h, streams,
               collect_path, force_sequential) -> BatchResult:
    """One chunk of :func:`simulate_batch`."""
    n_paths, dim = x.shape
    n_jumps = jump_times.size
    rows = np.arange(n_paths)
    r2 = rows[:, None]
    thr = cfg.overflow_threshold

    # per path, in a lone path's draw order: the regime chain, then the normals
    chains, grids, normals, jidx = [], [], [], []
    for p, st in enumerate(streams):
        chain = sample_ctmc(spec.xi_chain, int(y[p]), t1 - t0, st.chain)
        grid, gj = base, base_jidx
        if chain.switch_times.size or rec is not None:
            parts = [base, t0 + chain.switch_times]
            if rec is not None:
                parts.append(rec)
            grid = np.unique(np.concatenate(parts))
            gj = np.searchsorted(grid, jump_times)
        chains.append(chain)
        grids.append(grid)
        jidx.append(gj)
        normals.append(st.wiener.standard_normal((grid.size - 1, dim)))
    jidx = np.array(jidx, dtype=np.int64)
    steps = [g.size - 1 for g in grids]
    n_steps = np.array(steps)
    width = max(steps)
    if min(steps) == width:
        bounds, z = np.array(grids), np.array(normals)
    else:
        # pad each grid to the common width by repeating its end point
        col = np.arange(width + 1)
        z_off = np.cumsum(n_steps) - n_steps
        bounds = np.concatenate(grids)[(z_off + rows)[:, None] + np.minimum(col, n_steps[:, None])]
        z = np.concatenate(normals)[z_off[:, None] + np.minimum(col[:-1], n_steps[:, None] - 1)]
    regimes = np.empty((n_paths, width), dtype=np.int64)
    regimes[:] = y[:, None]
    for p, chain in enumerate(chains):
        if chain.switch_times.size:
            regimes[p, : steps[p]] = chain.state_at(grids[p][:-1] - t0)

    dt = bounds[:, 1:] - bounds[:, :-1]
    sq = np.sqrt(dt)
    tab_a_lin, tab_b_lin, tab_a_con, tab_b_con = _coeff_tables(spec)
    ri = regimes - 1
    m_fac = 1.0 + (tab_a_lin[ri] * dt)[..., None] + (tab_b_lin[ri] * sq)[..., None] * z
    u_add = None
    if spec.drift.kind == "constant" or spec.diffusion.kind == "constant":
        u_add = (tab_a_con[ri] * dt)[..., None] + (tab_b_con[ri] * sq)[..., None] * z

    # inside a segment [lo, hi] between impulses x(j) = P[j]/P[lo] * x(lo)
    # + P[j] * (S[j] - S[lo]), with P the running product of the step factors
    # and S the running sum of the additive parts over P
    prod = np.empty((n_paths, width + 1, dim))
    prod[:, 0] = 1.0
    np.cumprod(m_fac, axis=1, out=prod[:, 1:])
    absp = np.abs(prod)
    walked = {}
    if force_sequential or absp.min() < 1.0 / _CASCADE_LIMIT or absp.max() > _CASCADE_LIMIT:
        needs_walk = force_sequential | (absp.min(axis=(1, 2)) < 1.0 / _CASCADE_LIMIT) \
            | (absp.max(axis=(1, 2)) > _CASCADE_LIMIT)
        walked = {p: np.zeros((steps[p] + 1, dim)) for p in np.flatnonzero(needs_walk).tolist()}
    cum = None
    if u_add is not None:
        cum = np.zeros_like(prod)
        np.cumsum(u_add / prod[:, 1:], axis=1, out=cum[:, 1:])
    starts = np.zeros((n_paths, n_jumps + 1), dtype=np.int64)
    starts[:, 1:] = jidx
    ratio = prod[r2, jidx] / prod[r2, starts[:, :-1]]
    shift = None if cum is None else prod[r2, jidx] * (cum[r2, jidx] - cum[r2, starts[:, :-1]])
    y_pre = regimes[r2, jidx - 1].tolist()

    # impulses in time order; `sel` indexes the running paths, as a cheap
    # view while all of them run
    x_cur = x.copy()
    h_hist = np.empty((n_paths, n_jumps + 1), dtype=np.int64)
    h_hist[:, 0] = h
    x_pre = np.zeros((n_paths, n_jumps, dim))
    x_post = np.zeros((n_paths, n_jumps, dim))
    stop_jump = np.full(n_paths, n_jumps)      # the jump a path stopped at
    stop_after = np.zeros(n_paths, dtype=bool)  # ... after applying it
    live, sel = rows, slice(None)
    h_now = h.tolist()
    for s, k in enumerate(jump_ks.tolist()):
        xp = ratio[sel, s] * x_cur[sel]
        if shift is not None:
            xp += shift[sel, s]
        if walked:
            for i, p in enumerate(live.tolist()):
                if p in walked:
                    xp[i] = _walk(walked[p], m_fac[p], None if u_add is None else u_add[p],
                                  starts[p, s], jidx[p, s], x_cur[p])
        x_pre[sel, s] = xp
        over = _norms(xp) > thr
        if np.count_nonzero(over):
            stop_jump[live[over]] = s
            live = sel = live[~over]
            xp = xp[~over]
        ids = live.tolist()
        for p in ids:
            h_now[p] = sample_dtmc_step(spec.eta_chain, h_now[p], k, streams[p].mark)
        marks = [h_now[p] for p in ids]
        h_hist[sel, s + 1] = marks
        xa = xp + _impulse(spec.jump, k, [y_pre[p][s] for p in ids], marks, xp)
        x_post[sel, s] = xa
        x_cur[sel] = xa
        over = _norms(xa, pointwise=True) > thr
        if np.count_nonzero(over):
            stop_jump[live[over]] = s
            stop_after[live[over]] = True
            live = sel = live[~over]
            if live.size == 0:
                break
    for p in set(walked).intersection(live.tolist()):
        _walk(walked[p], m_fac[p], None if u_add is None else u_add[p],
              starts[p, -1], steps[p], x_cur[p])

    # every state of the window, the post-jump state at a jump boundary;
    # segment s of path p covers columns starts[p, s] up to the next start,
    # so repeating per-segment values by segment length fills (P, width + 1)
    ends = np.empty_like(starts)
    ends[:, :-1] = jidx
    ends[:, -1] = width + 1
    lengths = (ends - starts).ravel()
    flat_lo = (starts + rows[:, None] * (width + 1)).ravel()
    x_start = np.concatenate((x[:, None], x_post), axis=1)
    shape = prod.shape
    X = (prod / np.repeat(prod.reshape(-1, dim)[flat_lo], lengths, axis=0).reshape(shape)
         * np.repeat(x_start.reshape(-1, dim), lengths, axis=0).reshape(shape))
    if cum is not None:
        X += prod * (cum - np.repeat(cum.reshape(-1, dim)[flat_lo], lengths, axis=0).reshape(shape))
    X[r2, starts] = x_start
    for p, walk in walked.items():
        X[p, : steps[p] + 1] = walk
        X[p, steps[p] + 1 :] = walk[-1]

    # a path stops at its first norm over the threshold, in a lone path's
    # order: a segment's steps, the pre-jump state, the post-jump state (the
    # impulse loop already stopped paths at the latter two); below the
    # threshold before it, a stopped path's sup is the norm that stopped it
    norms = _norms(X)
    pre_norms = _norms(x_pre)
    post_norms = _norms(x_post, pointwise=True)
    sup = np.fmax(np.fmax.reduce(norms, axis=1),
                  np.fmax.reduce(np.fmax(pre_norms, post_norms), axis=1, initial=0.0))
    over = norms > thr
    exploded = over.any(axis=1) | (stop_jump < n_jumps)
    x_end = X[rows, n_steps]
    stop = n_steps.copy()
    n_applied = np.full(n_paths, n_jumps)
    for p in np.flatnonzero(exploded).tolist():
        s = int(stop_jump[p])
        hits = np.flatnonzero(over[p, : jidx[p, s] if s < n_jumps else steps[p] + 1])
        if hits.size:
            j = int(hits[0])
            stop[p], x_end[p], sup[p] = j, X[p, j], norms[p, j]
            n_applied[p] = np.count_nonzero(jidx[p] <= j)
        elif stop_after[p]:
            stop[p], x_end[p], sup[p] = jidx[p, s], x_post[p, s], post_norms[p, s]
            n_applied[p] = s + 1
        else:
            stop[p], x_end[p], sup[p] = jidx[p, s], x_pre[p, s], pre_norms[p, s]
            n_applied[p] = s
        X[p, stop[p]] = x_end[p]

    y_end = np.array(y)
    for p, chain in enumerate(chains):
        if chain.switch_times.size:
            y_end[p] = chain.state_at((bounds[p, stop[p]] if exploded[p] else t1) - t0)

    rec_values = rec_alive = ridx = None
    if rec is not None:
        ridx = np.array([np.searchsorted(g, rec) for g in grids])
        # an exploded path contributes no statistics at or past its stop
        rec_alive = ridx <= (stop - exploded)[:, None]
        rec_values = np.where(rec_alive[..., None], X[r2, ridx], np.nan)
    paths = None
    if collect_path:
        paths = [
            _collect_path(grids[p], X[p], regimes[p, : steps[p]], jidx[p], jump_ks,
                          t0 + chains[p].switch_times, int(stop[p]), cfg.record_stride,
                          () if ridx is None else ridx[p])
            for p in range(n_paths)
        ]
    return BatchResult(
        x_end=x_end,
        y_end=y_end,
        h_end=h_hist[rows, n_applied],
        exploded=exploded,
        explosion_time=np.where(exploded, bounds[rows, stop], np.nan),
        sup_norm=sup,
        jump_times=jump_times,
        jump_ks=jump_ks,
        n_jumps=n_applied,
        marks=h_hist[:, 1:],
        x_before=x_pre,
        x_after=x_post,
        record_values=rec_values,
        record_alive=rec_alive,
        paths=paths,
    )


def _walk(X, m_fac, u_add, lo, hi, x_lo):
    """Step-by-step segment ``[lo, hi]`` from ``x_lo``; returns ``X[hi]``."""
    X[lo] = x_lo
    if u_add is None:
        for j in range(lo, hi):
            X[j + 1] = m_fac[j] * X[j]
    else:
        for j in range(lo, hi):
            X[j + 1] = m_fac[j] * X[j] + u_add[j]
    return X[hi]


def _norms(v, pointwise=False):
    """Euclidean norms along the last axis.

    ``pointwise`` takes each vector's own ``np.linalg.norm``, as a lone path
    measures a post-jump state; the rounding of the two forms can differ
    when ``dim > 1``.
    """
    if v.shape[-1] == 1:
        return np.abs(v[..., 0])
    if pointwise:
        flat = v.reshape(-1, v.shape[-1])
        return np.array([np.linalg.norm(r) for r in flat]).reshape(v.shape[:-1])
    return np.linalg.norm(v, axis=-1)


def _impulse(jump, k, y_pre, marks, x_pre):
    """``jump.evaluate`` for every row, one call per distinct (regime, mark)."""
    keys = list(zip(y_pre, marks))
    if keys.count(keys[0]) == len(keys):
        return jump.evaluate(k, y_pre[0], marks[0], x_pre)
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    g = np.empty_like(x_pre)
    for (yv, hv), idx in groups.items():
        g[idx] = jump.evaluate(k, yv, hv, x_pre[idx])
    return g


def _collect_path(bounds, X, regimes, jump_idx, jump_ks, switch_abs, stop_idx, stride, extra=()):
    n = bounds.size - 1
    keep = set(range(0, stop_idx + 1, stride))
    keep.add(stop_idx)
    keep.update(int(i) for i in extra if i <= stop_idx)
    labels = {}
    for ji, k in zip(jump_idx, jump_ks):
        ji = int(ji)
        if ji <= stop_idx:
            keep.add(ji)
            labels[ji] = f"jump:{int(k)}"
    for si in np.searchsorted(bounds, switch_abs):
        si = int(si)
        if si <= stop_idx:
            keep.add(si)
            labels.setdefault(si, "switch")
    order = sorted(keep)
    times = bounds[order]
    states = X[order]
    # regime at a boundary is the regime of the step starting there (cadlag)
    regs = np.asarray([int(regimes[min(i, n - 1)]) for i in order])
    events = [labels.get(i, "") for i in order]
    return times, states, regs, events


# ---------------------------------------------------------------------------
# public path / ensemble API
# ---------------------------------------------------------------------------

def simulate_path(
    spec: SystemSpec,
    cfg: IntegratorConfig,
    horizon: float,
    path_index: int,
    policy: RngPolicy,
    record_times: np.ndarray | None = None,
) -> Trajectory:
    """Simulate one cadlag trajectory on ``[0, horizon]``.

    ``(policy.master_seed, path_index)`` fully determines the result.
    """
    if not 0 < horizon < math.inf:
        raise ConfigInvalid("horizon must be positive and finite")
    streams = policy.path_streams(path_index)
    res = simulate_window(
        spec, cfg, 0.0, horizon, spec.x0, spec.y0, spec.h0, streams,
        record_times=record_times, collect_path=True,
    )
    times, states, regimes, events = res.path
    return Trajectory(
        times=times,
        states=states,
        regimes=regimes,
        events=events,
        jump_events=res.jump_events,
        status="exploded" if res.exploded else "completed",
        explosion_time=res.explosion_time,
        sup_norm=res.sup_norm,
    )


@dataclass
class EnsembleSummary:
    """Per-time-grid statistics over an ensemble of paths.

    ``mean_sq`` is the mean squared norm over paths still alive at each grid
    time (exploded paths leave the average and are counted in
    ``explosion_fraction``); ``sup_norms`` holds each path's running sup of
    the norm up to its stopping time.
    """

    times: np.ndarray
    mean_sq: np.ndarray
    stderr: np.ndarray
    median_sq: np.ndarray
    explosion_fraction: np.ndarray
    sup_norms: np.ndarray
    n_paths: int
    n_exploded: int

    @property
    def sup_median(self) -> float:
        return float(np.median(self.sup_norms))

    @property
    def sup_max(self) -> float:
        return float(self.sup_norms.max())


def simulate_ensemble(
    spec: SystemSpec,
    cfg: IntegratorConfig,
    horizon: float,
    n_paths: int,
    policy: RngPolicy,
    record_times: np.ndarray | None = None,
    threads: int = 1,
) -> EnsembleSummary:
    """Simulate ``n_paths`` independent paths and aggregate statistics.

    Results are identical for any ``threads`` value: each path derives its
    own streams from its index and partial results merge in index order.
    """
    if n_paths < 1:
        raise ConfigInvalid("n_paths must be >= 1")
    if record_times is None:
        record_times = np.linspace(0.0, horizon, 201)
    rec = np.asarray(record_times, dtype=float)

    # a block's stream bundles (about 3 kB each) live until its batch ends
    blocks = [(lo, min(lo + 8, n_paths)) for lo in range(0, n_paths, 8)]

    def run_block(block):
        lo, hi = block
        res = simulate_batch(spec, cfg, 0.0, horizon, spec.x0, spec.y0, spec.h0,
                             [policy.path_streams(i) for i in range(lo, hi)], record_times=rec)
        block_sq = np.full((hi - lo, rec.size), np.nan)
        for p, (values, alive) in enumerate(zip(res.record_values, res.record_alive)):
            sqv = np.einsum("ij,ij->i", values, values)
            block_sq[p, alive] = sqv[alive]
        return block_sq, res.sup_norm, int(np.count_nonzero(res.exploded))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(b) for b in blocks]

    per_path_sq = np.empty((n_paths, rec.size))
    sups_all = np.empty(n_paths)
    n_exploded = 0
    for (lo, hi), (block_sq, sups, exploded) in zip(blocks, results):
        per_path_sq[lo:hi] = block_sq
        sups_all[lo:hi] = sups
        n_exploded += int(exploded)

    alive = ~np.isnan(per_path_sq)
    counts = alive.sum(axis=0)
    safe = np.maximum(counts, 1)
    mean_sq = np.nansum(per_path_sq, axis=0) / safe
    dev = per_path_sq - mean_sq
    var = np.nansum(np.where(alive, dev * dev, 0.0), axis=0) / np.maximum(counts - 1, 1)
    stderr = np.sqrt(var / safe)
    median_sq = np.full(rec.size, np.nan)
    nonempty = counts > 0
    if nonempty.any():
        median_sq[nonempty] = np.nanmedian(per_path_sq[:, nonempty], axis=0)
    mean_sq = np.where(counts == 0, np.nan, mean_sq)
    stderr = np.where(counts == 0, np.nan, stderr)
    explosion_fraction = 1.0 - counts / n_paths

    return EnsembleSummary(
        times=rec,
        mean_sq=mean_sq,
        stderr=stderr,
        median_sq=median_sq,
        explosion_fraction=explosion_fraction,
        sup_norms=sups_all,
        n_paths=n_paths,
        n_exploded=n_exploded,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write ``t,x_1..x_m,regime,event`` rows."""
    dim = traj.states.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"x_{d + 1}" for d in range(dim)] + ["regime", "event"])
        for i in range(traj.times.size):
            row = [repr(float(traj.times[i]))]
            row += [repr(float(v)) for v in traj.states[i]]
            row += [int(traj.regimes[i]), traj.events[i]]
            w.writerow(row)
