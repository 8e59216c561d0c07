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
It runs the paths in blocks that share one Python loop over the impulses,
where each jump steps every mark and applies every impulse as arrays, and
each block through one loop over chunks of one form: a range of whole paths
by a range of steps.  A chunk holds as many whole paths as one byte budget,
``_WORK_BYTES``, holds of work arrays, switch times counted; a path that
alone exceeds it runs by itself in chunks of steps.  A path draws its
normals once: the products of its chunks are kept for the pass after the
impulse loop, unless they would take the block's kept products past twice
that budget, or a long window has so many jumps that blocks of paths whose
products fit would make the impulse loop dearer than drawing them again.
"""

from __future__ import annotations

import copy
import csv
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .markov import sample_ctmc, sample_dtmc_step
from .system import SystemSpec

_CASCADE_LIMIT = 1e250
# bytes of work arrays the integrator holds at once, about (see _plan)
_WORK_BYTES = 2 ** 20
# step boundaries a window may have; ``dt_max = 1e-6`` over [0, 5] needs 5e6
MAX_BOUNDARIES = 10 ** 7
# bytes of per-path results an ensemble may allocate
MAX_RESULT_BYTES = 2 ** 30
# bytes of step grids cached per schedule realization (see _base_boundaries)
_CACHE_BYTES = 2 ** 25
# below this many paths, deriving each path's streams alone is cheaper
_BATCH_MIN_PATHS = 4
# path steps drawn again that cost about one impulse-loop iteration (see _plan)
_STEPS_PER_JUMP = 700

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

    Between jumps the steps are ``dt_max`` long, the last one ending on the
    jump, so each impulse piling up before a concentration point is hit
    exactly; a regime switch or record time splits the step it falls in.
    ``overflow_threshold`` marks a path as exploded, which stops it cleanly
    instead of overflowing floats.
    """

    dt_max: float = 1e-3
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
    then, in one call, one mark uniform per jump of the window.  A path's
    bits therefore do not depend on which batch it runs in, nor on its
    position there.
    """

    master_seed: int = 0

    def path_streams(self, path_index: int) -> "StreamBundle":
        seq = np.random.SeedSequence((self.master_seed, path_index))
        return StreamBundle(*[np.random.default_rng(s) for s in seq.spawn(3)])

    def path_streams_batch(self, indices) -> list:
        """``[self.path_streams(i) for i in indices]``, derived in one pass.

        Each path's three children of ``SeedSequence((master_seed, i))`` are
        seeded from its entropy words, zero-padded to the pool's four words,
        then the child's number, as ``SeedSequence.spawn`` seeds them, so
        every draw is bit for bit that of :meth:`path_streams`.  Indices lie
        in ``[0, 2**64)``.  The pass has a fixed cost of about 0.15 ms, so
        fewer than ``_BATCH_MIN_PATHS`` indices take :meth:`path_streams`.
        """
        idx = np.array([operator.index(i) for i in indices], dtype=np.uint64)
        if idx.size < _BATCH_MIN_PATHS:
            return [self.path_streams(i) for i in idx.tolist()]
        child = np.tile(np.arange(3, dtype=np.uint32), idx.size)
        gens = _generators(_keyed_states(_uint32_words(self.master_seed),
                                         np.repeat(idx, 3)[:, None], child))
        return [StreamBundle(*gens[i : i + 3]) for i in range(0, len(gens), 3)]

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
        prefix = _uint32_words(self.master_seed) + _uint32_words(tag)
        gens = _generators(_keyed_states(prefix, arr.astype(np.uint64)))
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


def _keyed_states(prefix: list, keys: np.ndarray, child=None) -> np.ndarray:
    """The PCG64 seeds of ``SeedSequence((*prefix, *key))`` for each row
    ``key`` of ``keys`` (uint64), given ``prefix`` as uint32 words; with
    ``child``, of that sequence's spawned child ``child[row]`` instead.
    """
    high = keys >> np.uint64(32)
    big = high != 0
    # an element of 2**32 or more is two entropy words, so keys are mixed
    # in groups that share one layout of their words
    if big.any():
        layouts, group = np.unique(big, axis=0, return_inverse=True)
    else:
        layouts, group = big[:1], np.zeros(len(keys), dtype=np.int64)
    states = np.empty((len(keys), 4), dtype=np.uint64)
    for g, layout in enumerate(layouts.tolist()):
        rows = np.flatnonzero(group.ravel() == g)
        cols = [np.full(rows.size, w, dtype=np.uint32) for w in prefix]
        for c, two in enumerate(layout):
            cols.append(keys[rows, c].astype(np.uint32))  # the low word
            if two:
                cols.append(high[rows, c].astype(np.uint32))
        if child is not None:
            # a child's entropy is padded to the pool's four words, then its
            # spawn key follows
            cols += [np.zeros(rows.size, dtype=np.uint32)] * (4 - len(cols))
            cols.append(child[rows])
        states[rows] = _seed_states(np.column_stack(cols))
    return states


def _generators(states: np.ndarray) -> list:
    """One PCG64 generator per row of seeds from :func:`_keyed_states`."""
    np.random.bit_generator.ISeedSequence.register(_SeedState)
    return [np.random.Generator(np.random.PCG64(_SeedState(s))) for s in states]


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

def _segment_interior(s: float, e: float, dt_max: float, room: int) -> np.ndarray:
    """Interior step boundaries strictly between ``s`` and ``e``: steps of
    ``dt_max`` from ``s``, the last one ending at ``e``.  More than ``room``
    points raise :class:`ConfigInvalid` as soon as they are built.

    These are the points of the loop ``t = t + dt_max`` from ``s``, run
    while ``e - t > dt_max * (1 + 1e-9)``, that stay below ``e``.
    ``np.add.accumulate`` adds in that order, so it gives the loop's bits.
    The points do not decrease, so each test fails from one point on: the
    second from the first point at or past ``e``, the first from a point
    found by testing it exactly near ``e`` only.
    """
    tol = dt_max * (1.0 + 1e-9)
    # the loop's first test, up front: near a concentration point most
    # segments are shorter than one step
    if not e - s > tol:
        return np.empty(0)
    t = np.full(int((e - s) / dt_max) + 3, dt_max)
    t[0] = s
    np.add.accumulate(t, out=t)
    end = t.searchsorted(e)
    # before ``lo`` every point is more than two steps short of ``e``
    lo = max(t.searchsorted(e - 2.0 * tol) - 1, 0)
    for j, v in enumerate(t[lo : end + 1].tolist(), lo):
        if not e - v > tol:
            pts = t[1 : min(j, end - 1) + 1]
            break
    else:
        # steps that round short of dt_max, near the float spacing of e,
        # leave the points short of it: the loop goes on from the last
        pts = t[1:]
        if pts.size <= room:
            pts = np.concatenate((pts, _segment_interior(t[-1], e, dt_max, room - pts.size)))
    if pts.size > room:
        raise ConfigInvalid(f"dt_max {float(dt_max)!r} needs more than {MAX_BOUNDARIES} step "
                            f"boundaries in the window up to {float(e)!r}")
    return pts


def _base_boundaries(realization, t0: float, t1: float, dt_max: float):
    """Shared (path-independent) boundaries: the jumps plus ``dt_max`` steps.

    Returns the boundaries, the window's jump times and indices ``k``, and
    the jumps' positions among the boundaries.  Cached on the realization
    object keyed by the window parameters (the nested probes revisit the
    same windows millions of times), until the cache holds ``_CACHE_BYTES``.
    A ``dt_max`` that cannot advance time in the window, or that needs more
    than ``MAX_BOUNDARIES`` boundaries by the window's length, raises
    :class:`ConfigInvalid` before any point is built; steps that round short
    near the float spacing can need more, which is refused as they are built.
    """
    cache = realization.__dict__.get("_boundary_cache")
    if cache is None:
        cache = realization.__dict__["_boundary_cache"] = _GridCache()
    key = (t0, t1, dt_max)
    hit = cache.get(key)
    if hit is not None:
        return hit
    jumps = realization.jumps_in(t0, t1)
    # ``t + dt_max`` rounds back to ``t`` for some ``t`` in the window when
    # the step is at most half the float spacing at the window's largest |t|
    if 2.0 * dt_max <= np.spacing(max(abs(t0), abs(t1))):
        raise ConfigInvalid(f"dt_max {dt_max!r} is too small to advance time on the window "
                            f"[{t0!r}, {t1!r}]")
    if (t1 - t0) / dt_max + len(jumps) > MAX_BOUNDARIES:
        raise ConfigInvalid(f"dt_max {dt_max!r} needs more than {MAX_BOUNDARIES} step "
                            f"boundaries on the window [{t0!r}, {t1!r}]")
    ends = [tau for _, tau in jumps]
    if (ends[-1] if ends else t0) < t1:
        ends.append(t1)
    # the segments' interior points share what the ends leave of the limit
    room = MAX_BOUNDARIES - 1 - len(ends)
    pts = [[t0]]
    cur = t0
    for end in ends:
        pts += [_segment_interior(cur, end, dt_max, room), [end]]
        room -= pts[-2].size
        cur = end
    base = np.concatenate(pts)
    jump_times = np.asarray([tau for _, tau in jumps], dtype=float)
    jump_ks = np.asarray([k for k, _ in jumps], dtype=np.int64)
    hit = (base, jump_times, jump_ks, np.searchsorted(base, jump_times))
    size = sum(a.nbytes for a in hit) + _GridCache.ENTRY_BYTES
    if cache.nbytes + size <= _CACHE_BYTES:
        cache[key] = hit
        cache.nbytes += size
    return hit


class _GridCache(dict):
    """The step grids of one realization by window, and their bytes."""

    # what an entry holds besides its arrays' data: four array headers, the
    # tuples and the key, about
    ENTRY_BYTES = 640
    nbytes = 0


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
    ``x_after[p, :n]``.  Later entries are no part of the path's result, and
    are 0 past the jump where the batch's impulse loop ended.
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
    then one normal per step and coordinate, then, in one call, one mark
    uniform per jump of the window.  Every arithmetic step is the lone
    path's elementwise operation, so a path's result is bit for bit the same
    in any batch, at any position.  Bundles must not be shared between
    paths.  ``record_times`` must lie in ``[t0, t1]``.

    Each path's step grid (the shared base grid plus its own switch and
    record times) is padded to a common length with zero-length steps, whose
    factor is exactly ``1 + a*0 + b*0*Z = 1``, so one ``cumprod`` along the
    step axis gives every path's segment products.  A path whose products
    leave ``[1/_CASCADE_LIMIT, _CASCADE_LIMIT]`` (or every path, with
    ``force_sequential``) is walked step by step instead.

    The paths run in blocks (see :func:`_plan`) that share one impulse loop;
    a block ends early where its regime chains' switch times pass
    ``_WORK_BYTES``.  Each block runs in chunks, twice: once for the products
    at the jumps, and again, after the impulse loop, for the states.  A chunk
    is a group of as many whole paths as ``_WORK_BYTES`` holds of work arrays
    at the block's widest path, switch times counted, or, when that path
    alone is past it, one path over a range of its steps.  The first pass
    keeps each group's products and sums for the second, as long as the
    block's kept products fit twice ``_WORK_BYTES`` with its per-jump state;
    the groups past that draw their normals again, from generators set back
    to their state before the first draw.  ``cumprod`` and ``cumsum`` are
    sequential, so continuing them from the previous chunk's last column
    gives the same bits.
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
    rec = None if record_times is None else np.asarray(record_times, dtype=float)
    # a record time before t0 would move every path's start; NaN fails both tests
    if rec is not None and not ((rec >= t0) & (rec <= t1)).all():
        raise ConfigInvalid(f"record times must be finite and lie in the window [{t0!r}, {t1!r}]")
    base, jump_times, jump_ks, base_jidx = _base_boundaries(spec.realization(), t0, t1, cfg.dt_max)
    n_rec = 0 if rec is None else rec.size
    block = _plan(base.size - 1 + n_rec, jump_times.size, spec.dim, _additive(spec))
    parts, lo = [], 0
    while lo < n_paths:
        # a block's regime chains come first; it ends early once their switch
        # times pass the budget: 32 bytes each, with the chain's states and
        # the copy inserted in the path's grid
        chains, held = [], 0
        for p in range(lo, min(lo + block, n_paths)):
            chains.append(sample_ctmc(spec.xi_chain, int(y[p]), t1 - t0, streams[p].chain))
            held += 32 * chains[-1].switch_times.size
            if held > _WORK_BYTES:
                break
        hi = lo + len(chains)
        with np.errstate(all="ignore"):  # an exploding path is a status, not a warning
            parts.append(_integrate(spec, cfg, t0, t1, base, jump_times, jump_ks, base_jidx, rec,
                                    x[lo:hi], y[lo:hi], h[lo:hi], streams[lo:hi], chains,
                                    collect_path, force_sequential))
        lo = hi
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


def _plan(width: int, n_jumps: int, dim: int, additive: bool) -> int:
    """Paths per block for windows of about ``width`` steps and ``n_jumps`` jumps.

    A block's paths share one impulse loop, and run in chunks of whole
    paths (see :func:`simulate_batch`) twice: once for the products at the
    jumps, and once, after the impulses, for the states.  The first pass
    keeps each chunk's products (``8 * dim`` bytes per step, twice that with
    the sums of an additive family) for the second, and a block is as many
    paths as twice ``_WORK_BYTES`` holds of them with their per-jump state.
    Such a block is small when the window is long, and every block pays one
    loop iteration per jump, which costs about as much as drawing
    ``_STEPS_PER_JUMP`` steps of a path again.  So when the kept block's
    steps are fewer than that per jump, or one path's products exceed twice
    the budget, a block is as many paths as ``_WORK_BYTES`` holds of their
    per-jump state (if more): its first groups keep their products, and the
    rest draw their normals again for the second pass.

    ``width`` cannot count switch times, drawn later; the paths that they
    push past the budget draw their normals again too.
    """
    state = _jump_bytes(n_jumps, dim)
    kept = 2 * _WORK_BYTES // (_kept_bytes(width, dim, additive) + state)
    if kept >= 1 and kept * width >= _STEPS_PER_JUMP * n_jumps:
        return kept
    return max(1, kept, _WORK_BYTES // state)


def _kept_bytes(steps, dim: int, additive: bool):
    """Bytes of the products a path of ``steps`` steps keeps through the
    impulse loop: ``steps + 1`` columns of them, and of sums when ``additive``."""
    return (steps + 1) * 8 * dim * (1 + additive)


def _jump_bytes(n_jumps: int, dim: int) -> int:
    """Bytes of a path's state at each jump, held through the impulse loop."""
    return (n_jumps + 1) * (24 * dim + 48)


def _additive(spec: SystemSpec) -> bool:
    """Whether a step's update has a part that does not scale with ``x``."""
    return spec.drift.kind == "constant" or spec.diffusion.kind == "constant"


def _rows(value, shape, dtype) -> np.ndarray:
    """A new array of ``shape`` holding ``value`` broadcast to it."""
    out = np.empty(shape, dtype=dtype)
    out[...] = value
    return out


def _integrate(spec, cfg, t0, t1, base, jump_times, jump_ks, base_jidx, rec, x, y, h, streams,
               chains, collect_path, force_sequential) -> BatchResult:
    """One block of :func:`simulate_batch`, its regime ``chains`` drawn."""
    n_paths, dim = x.shape
    n_jumps = jump_times.size
    rows = np.arange(n_paths)
    thr = cfg.overflow_threshold

    # the shared grid is the base grid plus the record times; a path's own
    # grid also holds its switch times, inserted where they are not on it
    grid, gj = base, base_jidx
    if rec is not None:
        grid = np.unique(np.concatenate((base, rec)))
        gj = np.searchsorted(grid, jump_times)
        gr = np.searchsorted(grid, rec)
    # each segment's first column: 0, then each jump's
    starts = np.zeros((n_paths, n_jumps + 1), dtype=np.int64)
    starts[:, 1:] = gj
    jidx = starts[:, 1:]
    ridx = None
    if rec is not None:
        ridx = np.empty((n_paths, rec.size), dtype=np.int64)
        ridx[:] = gr
    n_new = np.zeros(n_paths, dtype=np.int64)
    inserted = {}
    for p, chain in enumerate(chains):
        if chain.switch_times.size:
            sw = t0 + chain.switch_times
            at = np.searchsorted(grid, sw)
            keep = grid[np.minimum(at, grid.size - 1)] != sw
            keep[1:] &= sw[1:] != sw[:-1]
            if keep.any():
                sw, at = sw[keep], at[keep]
                n_new[p] = sw.size
                inserted[p] = (at, sw)
                jidx[p] += np.searchsorted(at, gj, side="right")
                if ridx is not None:
                    ridx[p] += np.searchsorted(at, gr, side="right")
    steps = grid.size - 1 + n_new
    width = int(steps.max())

    # a chunk is paths rows[sel] over columns a..b (see simulate_batch); the
    # groups keep their products while all kept so far, with the block's
    # state at each jump, fit twice the budget
    additive = _additive(spec)
    limit = max(1, _WORK_BYTES // (128 * dim))
    group = max(1, limit // width)
    held = n_paths * _jump_bytes(n_jumps, dim)
    chunks = []
    for lo in range(0, n_paths, group):
        sel = slice(lo, lo + group)
        n = int(steps[sel].max())
        held += rows[sel].size * _kept_bytes(n, dim, additive)
        chunks += [(sel, a, min(a + limit, n), held <= 2 * _WORK_BYTES)
                   for a in range(0, n, limit)]

    def grid_of(p):
        """Path ``p``'s own step grid."""
        return np.insert(grid, *inserted[p]) if p in inserted else grid

    def bounds_of(sel, a, b):
        """Columns ``a..b`` of the grids of paths ``rows[sel]``, each padded
        with its end point; one shared row when none has a switch inserted.
        A lone path needs no padding: its chunks end by its last column."""
        lo, hi = sel.indices(n_paths)[:2]
        if hi - lo == 1:
            return grid_of(lo)[None, a : b + 1]
        own = [p for p in inserted if lo <= p < hi]
        if not own:
            return grid[None, a : b + 1]
        bnd = np.full((hi - lo, b - a + 1), grid[-1])
        part = grid[a : b + 1]
        bnd[:, : part.size] = part
        for p in own:
            part = grid_of(p)[a : b + 1]
            bnd[p - lo, : part.size] = part
            bnd[p - lo, part.size :] = part[-1]
        return bnd

    tab_a_lin, tab_b_lin, tab_a_con, tab_b_con = _coeff_tables(spec)

    def factors(sel, a, b, gens):
        """Regimes, step factors and additive parts of steps ``a..b-1`` of
        paths ``rows[sel]``, with normals from ``gens``; zero-length padding
        steps keep the starting regime and take normal 0."""
        bnd = bounds_of(sel, a, b)
        regimes = np.empty((rows[sel].size, b - a), dtype=np.int64)
        regimes[:] = y[sel][:, None]
        ns = (np.minimum(steps[sel], b) - a).tolist()
        draws = []
        for i, (p, n) in enumerate(zip(rows[sel].tolist(), ns)):
            if chains[p].switch_times.size:
                regimes[i, :n] = chains[p].state_at(bnd[min(i, len(bnd) - 1), :n] - t0)
            draws.append(gens[p].standard_normal((n, dim)))
        if min(ns) == b - a:
            z = np.array(draws)
        else:
            z = np.zeros((len(ns), b - a, dim))
            for i, (n, d) in enumerate(zip(ns, draws)):
                z[i, :n] = d
        dt = bnd[:, 1:] - bnd[:, :-1]
        sq = np.sqrt(dt)
        ri = regimes - 1
        m_fac = 1.0 + (tab_a_lin[ri] * dt)[..., None] + (tab_b_lin[ri] * sq)[..., None] * z
        u_add = None
        if additive:
            u_add = (tab_a_con[ri] * dt)[..., None] + (tab_b_con[ri] * sq)[..., None] * z
        return regimes, m_fac, u_add

    # inside a segment [lo, hi] between impulses x(j) = P[j]/P[lo] * x(lo)
    # + P[j] * (S[j] - S[lo]), with P the running product of the step factors
    # and S the running sum of the additive parts over P; a chunk holds
    # columns a..b, column a carrying P and S on from the chunk before
    def products(m_fac, u_add, a, carry):
        prod = np.empty((m_fac.shape[0], m_fac.shape[1] + 1, dim))
        prod[:, 0] = carry[0]
        if a:
            m_fac[:, 0] *= carry[0]
        np.cumprod(m_fac, axis=1, out=prod[:, 1:])
        cum = None
        if u_add is not None:
            q = u_add / prod[:, 1:]
            if a:
                q[:, 0] += carry[1]
            cum = np.empty_like(prod)
            cum[:, 0] = carry[1]
            np.cumsum(q, axis=1, out=cum[:, 1:])
        return prod, cum

    gens = [st.wiener for st in streams]
    # only a path that may draw its normals again saves its state, as saving
    # every one slows short windows: a path in a group whose products are not
    # kept, or walked over several chunks; a walk in one chunk takes its factors there
    replay = {p: gens[p].bit_generator.state
              for sel, a, b, keep in chunks if a or not keep for p in rows[sel].tolist()}

    def replayed(p):
        """A generator in path ``p``'s state before its first normal."""
        bit_gen = copy.copy(gens[p].bit_generator)
        bit_gen.state = replay[p]
        return np.random.Generator(bit_gen)

    # first pass: regimes, products and sums at the jumps, and the extremes
    # of each path's products
    p_start = np.empty((n_paths, n_jumps + 1, dim))
    p_start[:, 0] = 1.0
    c_start = np.zeros((n_paths, n_jumps + 1, dim)) if additive else None
    y_pre = np.empty((n_paths, n_jumps), dtype=np.min_scalar_type(spec.n_regimes))
    needs_walk = np.zeros(n_paths, dtype=bool)
    needs_walk[:] = force_sequential

    def first_pass(sel, a, b, carry):
        regimes, m_fac, u_add = factors(sel, a, b, gens)
        prod, cum = products(m_fac, u_add, a, carry)
        absp = np.abs(prod)
        if absp.min() < 1.0 / _CASCADE_LIMIT or absp.max() > _CASCADE_LIMIT:
            needs_walk[sel] |= (absp.min(axis=(1, 2)) < 1.0 / _CASCADE_LIMIT) \
                | (absp.max(axis=(1, 2)) > _CASCADE_LIMIT)
        # the jumps in columns a+1..b
        jj = jidx[sel] - a
        inside = (jj > 0) & (jj <= b - a)
        pp, jc = inside.nonzero()[0], jj[inside]
        p_start[sel, 1:][inside] = prod[pp, jc]
        y_pre[sel][inside] = regimes[pp, jc - 1]
        if cum is not None:
            c_start[sel, 1:][inside] = cum[pp, jc]
        return m_fac, u_add, prod, cum

    kept, chunk_of = [], {}
    for sel, a, b, keep in chunks:
        m_fac, u_add, *part = first_pass(sel, a, b, (1.0, 0.0) if a == 0 else _last(part))
        kept.append(part if keep else None)
        chunk_of.update((sel.start + i, (m_fac, u_add, i)) for i in needs_walk[sel].nonzero()[0])
    walked = {}
    for p in needs_walk.nonzero()[0].tolist():
        m_fac, u_add, i = chunk_of[p] if p not in replay else \
            (*factors(slice(p, p + 1), 0, int(steps[p]), {p: replayed(p)})[1:], 0)
        walked[p] = (np.zeros((steps[p] + 1, dim)), m_fac[i], None if u_add is None else u_add[i])

    # impulses in time order, on every path: a path's draws come from its own
    # streams, so impulses past its stop change nothing it returns, and where
    # each path stops is decided once, after the loop; x_start holds the
    # start, then each post-jump state.  Each path draws its window's mark
    # uniforms in one call, after its normals, as a lone path does.
    x_start = np.zeros((n_paths, n_jumps + 1, dim))
    x_start[:, 0] = x
    x_pre = np.zeros((n_paths, n_jumps, dim))
    x_post = x_start[:, 1:]
    h_hist = np.zeros((n_paths, n_jumps + 1), dtype=np.int64)
    h_hist[:, 0] = h
    x_cur, h_now = x, h
    u_mark = np.empty((n_paths, n_jumps))
    for st, row in zip(streams, u_mark):
        st.mark.random(out=row)
    ratio = p_start[:, 1:] / p_start[:, :-1]
    shift = p_start[:, 1:] * (c_start[:, 1:] - c_start[:, :-1]) if additive else None
    for s, k in enumerate(jump_ks.tolist()):
        xp = ratio[:, s] * x_cur
        if shift is not None:
            xp += shift[:, s]
        for p, (walk, m_row, u_row) in walked.items():
            xp[p] = _walk(walk, m_row, u_row, starts[p, s], jidx[p, s], x_cur[p])
        x_pre[:, s] = xp
        h_now = h_hist[:, s + 1] = sample_dtmc_step(spec.eta_chain, h_now, k, u_mark[:, s])
        x_cur = x_post[:, s] = xp + spec.jump.evaluate(k, y_pre[:, s], h_now, xp)
        # every path has stopped once each coordinate is past the threshold,
        # since a norm is never below its largest coordinate
        if np.abs(x_cur).min() > thr:
            break
    for p, (walk, m_row, u_row) in walked.items():
        _walk(walk, m_row, u_row, starts[p, -1], steps[p], x_cur[p])

    # second pass: every state of the window, the post-jump state at a jump
    # boundary; segment s of path p covers columns starts[p, s] up to
    # ends[p, s].  Kept per path: the sup of the step norms, the first column
    # over the threshold, the state at the last step and at each record time.
    ends = np.empty_like(starts)
    ends[:, :-1] = jidx
    ends[:, -1] = width + 1
    sup = np.zeros(n_paths) + np.nan
    first = np.zeros(n_paths, dtype=np.int64) - 1
    x_first = np.empty((n_paths, dim))
    n_first = np.empty(n_paths)
    # the columns of the states returned: each record time's, then the last
    out_cols = steps[:, None] if ridx is None else np.column_stack((ridx, steps))
    x_out = np.empty((n_paths, out_cols.shape[1], dim))
    X_all = np.empty((n_paths, width + 1, dim)) if collect_path else None
    def second_pass(sel, a, b, prod_cum, before):
        if prod_cum is None:
            if a == 0:
                for p in rows[sel].tolist():
                    gens[p] = replayed(p)
            prod_cum = products(*factors(sel, a, b, gens)[1:], a,
                                (1.0, 0.0) if a == 0 else _last(before))
        prod, cum = prod_cum
        r = rows[sel]
        st = starts[sel]
        # each segment's columns in this chunk
        lengths = np.maximum(np.minimum(ends[sel], b + 1) - np.maximum(st, a), 0).ravel()

        def spread(v):
            return np.repeat(v[sel].reshape(-1, dim), lengths, axis=0).reshape(prod.shape)

        X = prod / spread(p_start) * spread(x_start)
        if cum is not None:
            X += prod * (cum - spread(c_start))
        inside = (st >= a) & (st <= b)
        X[inside.nonzero()[0], st[inside] - a] = x_start[sel][inside]
        for i, p in enumerate(r.tolist()):
            if p in walked:
                X[i] = walked[p][0][np.minimum(np.arange(a, b + 1), steps[p])]
        norms = _norms(X)
        sup[sel] = np.fmax(sup[sel], np.fmax.reduce(norms, axis=1))
        over = norms > thr
        if over.any():
            hit = (over.any(axis=1) & (first[sel] < 0)).nonzero()[0]
            j = over[hit].argmax(axis=1)
            first[r[hit]], x_first[r[hit]], n_first[r[hit]] = a + j, X[hit, j], norms[hit, j]
        oc = out_cols[sel]
        inside = (oc >= a) & (oc <= b)
        x_out[sel][inside] = X[inside.nonzero()[0], oc[inside] - a]
        if X_all is not None:
            X_all[sel, a : b + 1] = X
        return prod_cum

    before = None
    for i, (sel, a, b, _) in enumerate(chunks):
        before, kept[i] = second_pass(sel, a, b, kept[i], before), None
    x_end, rec_raw = x_out[:, -1].copy(), x_out[:, :-1]

    # a path stops at its first norm over the threshold, in a lone path's
    # order: a segment's steps, the pre-jump state, the post-jump state; a
    # stopped path's sup is the norm that stopped it
    pre_norms = _norms(x_pre)
    post_norms = _norms(x_post, pointwise=True)
    sup = np.fmax(sup, np.fmax.reduce(np.fmax(pre_norms, post_norms), axis=1, initial=0.0))
    pre_over = pre_norms > thr
    jump_over = np.empty((n_paths, n_jumps + 1), dtype=bool)
    jump_over[:, -1] = True
    jump_over[:, :-1] = pre_over | (post_norms > thr)
    stop_jump = jump_over.argmax(axis=1)      # the first jump a path stopped at, else n_jumps
    exploded = (first >= 0) | (stop_jump < n_jumps)
    stop = steps.copy()
    n_applied = np.full(n_paths, n_jumps)
    t_stop = np.full(n_paths, np.nan)
    for p in exploded.nonzero()[0].tolist():
        s = int(stop_jump[p])
        if 0 <= first[p] < (jidx[p, s] if s < n_jumps else steps[p] + 1):
            j = int(first[p])
            stop[p], x_end[p], sup[p] = j, x_first[p], n_first[p]
            n_applied[p] = np.count_nonzero(jidx[p] <= j)
        elif pre_over[p, s]:
            stop[p], x_end[p], sup[p] = jidx[p, s], x_pre[p, s], pre_norms[p, s]
            n_applied[p] = s
        else:
            stop[p], x_end[p], sup[p] = jidx[p, s], x_post[p, s], post_norms[p, s]
            n_applied[p] = s + 1
        t_stop[p] = grid_of(p)[stop[p]]
        if X_all is not None:
            X_all[p, stop[p]] = x_end[p]

    y_end = np.array(y)
    for p, chain in enumerate(chains):
        if chain.switch_times.size:
            y_end[p] = chain.state_at((t_stop[p] if exploded[p] else t1) - t0)

    rec_values = rec_alive = None
    if rec is not None:
        # an exploded path contributes no statistics at or past its stop
        rec_alive = ridx <= (stop - exploded)[:, None]
        rec_values = np.where(rec_alive[..., None], rec_raw, np.nan)
    paths = None
    if collect_path:
        paths = []
        for p in range(n_paths):
            bnd = grid_of(p)
            regimes = chains[p].state_at(bnd[:-1] - t0) if chains[p].switch_times.size \
                else np.full(steps[p], y[p])
            paths.append(_collect_path(bnd, X_all[p], regimes, jidx[p], jump_ks,
                                       t0 + chains[p].switch_times, int(stop[p]),
                                       cfg.record_stride, () if ridx is None else ridx[p]))
    return BatchResult(
        x_end=x_end,
        y_end=y_end,
        h_end=h_hist[rows, n_applied],
        exploded=exploded,
        explosion_time=t_stop,
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


def _last(prod_cum):
    """The carry for the next chunk: the last column of a chunk's products and sums."""
    prod, cum = prod_cum
    return prod[:, -1].copy(), None if cum is None else cum[:, -1].copy()


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

    Each path derives its own streams from its index, so the result does not
    depend on how paths are grouped.  ``threads`` is accepted, and recorded
    in CLI manifests, but no longer changes how paths run: they run on the
    calling thread, one :func:`simulate_batch` block at a time (see
    :func:`_plan`), each block's streams derived in one
    :meth:`RngPolicy.path_streams_batch` call.  More than
    ``MAX_RESULT_BYTES`` of per-path results raises :class:`ConfigInvalid`
    before anything is allocated.
    """
    if n_paths < 1:
        raise ConfigInvalid("n_paths must be >= 1")
    if not 0.0 < horizon < math.inf:
        raise ConfigInvalid("window must be finite with positive length")
    if record_times is None:
        record_times = np.linspace(0.0, horizon, 201)
    rec = np.asarray(record_times, dtype=float)

    # the result arrays are sized by the caller's numbers, so refuse them
    # before allocating
    need = 8 * n_paths * (rec.size + 1)
    if need > MAX_RESULT_BYTES:
        raise ConfigInvalid(f"{n_paths} paths with {rec.size} record times need {need} bytes of "
                            f"results, more than {MAX_RESULT_BYTES}")
    per_path_sq = np.full((n_paths, rec.size), np.nan)
    sups_all = np.empty(n_paths)
    n_exploded = 0
    # one block per batch, sized as the integrator sizes them; a block's
    # stream bundles (about 3 kB each) live until its batch ends
    base, jump_times = _base_boundaries(spec.realization(), 0.0, horizon, cfg.dt_max)[:2]
    block = _plan(base.size - 1 + rec.size, jump_times.size, spec.dim, _additive(spec))
    for lo in range(0, n_paths, block):
        hi = min(lo + block, n_paths)
        res = simulate_batch(spec, cfg, 0.0, horizon, spec.x0, spec.y0, spec.h0,
                             policy.path_streams_batch(range(lo, hi)), record_times=rec)
        for p, (values, alive) in enumerate(zip(res.record_values, res.record_alive)):
            sqv = np.einsum("ij,ij->i", values, values)
            per_path_sq[lo + p, alive] = sqv[alive]
        sups_all[lo:hi] = res.sup_norm
        n_exploded += int(np.count_nonzero(res.exploded))

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
