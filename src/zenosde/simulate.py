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
It runs the paths in blocks that share one Python loop over the impulses.
A block's kernel, :func:`_integrate`, reads three seams, one per decision:
:class:`_Draws` owns every draw, in a lone path's order, and the replay of
normals; :func:`_step_factors` is the law of a step; :class:`_BlockGrid`
owns the step grids, each path's columns (jumps', record times', and the
switches' it finds once) and the chunks, each a range of whole paths by a
range of steps within one byte budget, ``_WORK_BYTES``.  A scalar path with
no additive part and no collected states is summarized: its sup and
returned states follow, bit for bit, from each segment's largest |product|
and its products at the states it returns.  Every other path takes a pass
over its states after the impulse loop (see :func:`_plan`).
"""

from __future__ import annotations

import copy
import csv
import functools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .markov import _holding_time, sample_ctmc, sample_dtmc_step
from .system import SystemSpec

_CASCADE_LIMIT = 1e250
# a path whose norm passes this is exploded: it stops cleanly there instead
# of overflowing floats
OVERFLOW_THRESHOLD = 1e12
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
# path steps drawn again that cost about one impulse-loop iteration (see _plan):
# on case2 windows of about 50,000 steps, kept blocks tied redraw blocks at
# 137-204 kept steps per jump and lost by 13% at 78
_STEPS_PER_JUMP = 150

# the hash constants of numpy.random.SeedSequence
_MASK32 = 0xFFFFFFFF
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715


class ConfigInvalid(ValueError):
    """Integrator configuration failed validation."""


def _sample_count(n, name: str) -> int:
    """``n`` as an ``int``, refused unless it is an integer of at least 1
    (a float such as ``1e4`` is refused too); ``name`` names it."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ConfigInvalid(f"{name} must be an integer, got {n!r}") from None
    if n < 1:
        raise ConfigInvalid(f"{name} must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size policy and the stride of a collected path's samples.

    Between jumps the steps are ``dt_max`` long, the last one ending on the
    jump, so each impulse piling up before a concentration point is hit
    exactly; a regime switch or record time splits the step it falls in.
    A path whose norm passes ``OVERFLOW_THRESHOLD`` is exploded.
    """

    dt_max: float = 1e-3
    record_stride: int = 10

    def __post_init__(self):
        # a NaN step never ends the step loop
        if not 0 < self.dt_max < math.inf:
            raise ConfigInvalid("dt_max must be positive and finite")
        _sample_count(self.record_stride, "record_stride")


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
        :meth:`aux_streams`.  The pass has a fixed cost of about 0.08 ms and
        pays off from about 8 keys on (2-core Xeon, numpy 2.4).
        """
        if not len(keys):
            return []
        arr = keys if isinstance(keys, np.ndarray) else np.array(keys, dtype=np.uint64)
        if arr.ndim != 2 or arr.dtype.kind not in "iu" or (arr.size and arr.min() < 0):
            raise ValueError("keys must be equal-length keys of non-negative integers")
        prefix = _uint32_words(self.master_seed) + _uint32_words(tag)
        gens = _generators(_keyed_states(prefix, arr.astype(np.uint64)))
        return [StreamBundle(g, g, g) for g in gens]

    def derive(self, *key: int) -> "RngPolicy":
        """Deterministically derived sub-policy for an auxiliary ensemble."""
        state = np.random.SeedSequence((self.master_seed, *key)).generate_state(1, np.uint64)
        return RngPolicy(master_seed=int(state[0]))


@dataclass
class StreamBundle:
    chain: np.random.Generator
    mark: np.random.Generator
    wiener: np.random.Generator


@functools.cache
def _seed_state() -> type:
    """The ``ISeedSequence`` subclass whose ``generate_state(4, np.uint64)``,
    all that PCG64 asks of one, was computed in advance; defined on first
    use, since importing ``numpy.random`` costs about 20 ms."""

    class _SeedState(np.random.bit_generator.ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError("only the four uint64 words of a PCG64 seed are held")
            return self.state

    _SeedState.__qualname__ = "_SeedState"
    return _SeedState


def __getattr__(name: str):
    """``_SeedState``, by which pickle finds the class :func:`_seed_state` defines."""
    if name == "_SeedState":
        return _seed_state()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    seed, pcg64, generator = _seed_state(), np.random.PCG64, np.random.Generator
    return [generator(pcg64(seed(s))) for s in states]


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for every row of
    ``words`` (uint32, one entropy per row), as array operations.

    This is numpy's algorithm with its pool of four words: hash the first
    words into the pool, mix every pool word into every other, mix in the
    remaining words, then hash the pool out into eight words.  The hash
    constant advances on every hash whatever the data, so the hashes of one
    word run as one array operation; uint32 array arithmetic wraps as
    numpy's C code does.
    """

    def hashmix(value, const):
        """One hash of ``value`` per constant but the last of ``const``."""
        value = (value ^ const[:-1]) * const[1:]
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _SS_MIX_L - y * _SS_MIX_R
        return value ^ (value >> 16)

    entropy = np.zeros((max(words.shape[1], 4), len(words)), dtype=np.uint32)
    entropy[: words.shape[1]] = words.T
    const = _hash_constants(_SS_INIT_A, _SS_MULT_A, 4 * len(entropy))
    pool = hashmix(entropy[:4], const[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], const[4 + 3 * src : 8 + 3 * src]))
    for src in range(4, len(entropy)):
        pool = mix(pool, hashmix(entropy[src], const[4 * src : 4 * src + 5]))
    out = hashmix(np.tile(pool, (2, 1)), _hash_constants(_SS_INIT_B, _SS_MULT_B, 8)).T
    # pairs of words read as little-endian uint64, as numpy does
    return np.ascontiguousarray(out).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init`` and the ``count`` hash constants after it, a read-only uint32 column."""
    const = np.array([init * pow(mult, k, 2 ** 32) & _MASK32 for k in range(count + 1)],
                     dtype=np.uint32)[:, None]
    const.flags.writeable = False
    return const


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
    cache = _GridCache.on(realization, "_boundary_cache")
    key = (t0, t1, dt_max)
    hit = cache.get(key)
    if hit is not None:
        return hit
    jump_ks, jump_times = realization.jumps_in(t0, t1)
    # ``t + dt_max`` rounds back to ``t`` for some ``t`` in the window when
    # the step is at most half the float spacing at the window's largest |t|
    if 2.0 * dt_max <= np.spacing(max(abs(t0), abs(t1))):
        raise ConfigInvalid(f"dt_max {dt_max!r} is too small to advance time on the window "
                            f"[{t0!r}, {t1!r}]")
    if (t1 - t0) / dt_max + jump_times.size > MAX_BOUNDARIES:
        raise ConfigInvalid(f"dt_max {dt_max!r} needs more than {MAX_BOUNDARIES} step "
                            f"boundaries on the window [{t0!r}, {t1!r}]")
    ends = jump_times.tolist()
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
    return cache.keep(key, (base, jump_times, jump_ks, np.searchsorted(base, jump_times)))


class _GridCache(dict):
    """Arrays by window, cached on the object they derive from, and their bytes."""

    # what an entry holds besides its arrays' data: four array headers, the
    # tuples and the key, about
    ENTRY_BYTES = 640
    nbytes = 0

    @classmethod
    def on(cls, owner, name: str) -> "_GridCache":
        """The cache ``name`` of ``owner``, made on first use."""
        return owner.__dict__.setdefault(name, cls())

    def keep(self, key, arrays: tuple) -> tuple:
        """``arrays``, kept under ``key`` until the cache holds ``_CACHE_BYTES``."""
        size = sum(a.nbytes for a in arrays if a is not None) + self.ENTRY_BYTES
        if self.nbytes + size <= _CACHE_BYTES:
            self[key] = arrays
            self.nbytes += size
        return arrays


def _impulse_table(spec: SystemSpec, t0: float, t1: float, jump_ks: np.ndarray, marks) -> tuple:
    """``spec.jump.coefficients(jump_ks)`` for the jumps ``jump_ks`` of the
    window ``(t0, t1]``, cached on the spec by window, with each path's gain
    taken by its mark at each jump (``marks``) where the maps have one per mark."""
    cache = _GridCache.on(spec, "_impulse_cache")
    hit = cache.get((t0, t1))
    gain, offset = hit if hit is not None else cache.keep((t0, t1), spec.jump.coefficients(jump_ks))
    if gain is not None:
        gain = (gain[np.arange(jump_ks.size)[:, None], marks.T - 1] if gain.shape[1] > 1
                else gain)[..., None]
    return gain, offset


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
    record_values: np.ndarray             # (n_record, dim); rows after explosion are NaN
    record_alive: np.ndarray              # bool per record time
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
    record_values: np.ndarray             # (P, n_record, dim); NaN at and after explosion
    record_alive: np.ndarray              # (P, n_record)
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
            record_values=self.record_values[p],
            record_alive=self.record_alive[p],
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
) -> WindowResult:
    """Integrate one path over ``(t0, t1]`` from state ``(x, y, h)``.

    ``h`` is the mark after the last jump at or before ``t0``; every
    scheduled jump inside the window steps the mark chain and applies the
    impulse map at the pre-jump state.  This is :func:`simulate_batch` with
    a single path.
    """
    res = simulate_batch(spec, cfg, t0, t1, x, y, h, [streams], record_times, collect_path)
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
) -> BatchResult:
    """Integrate ``len(streams)`` paths over ``(t0, t1]`` in one call.

    Path ``p`` starts from ``(x[p], y[p], h[p])`` (``x``, ``y`` and ``h``
    broadcast to ``(P, dim)``, ``(P,)``, ``(P,)``) and draws only from its
    own bundle ``streams[p]``, in the order of a lone path (see
    :class:`_Draws`).  Every arithmetic step is the lone path's elementwise
    operation, so a path's result is bit for bit the same in any batch, at
    any position.  Bundles must not be shared between paths.
    ``record_times`` must lie in ``[t0, t1]``; without them the record
    arrays have no columns, ``(P, 0, dim)`` and ``(P, 0)``.

    Every path's grid is padded to the block's widest with zero-length
    steps, whose factor is exactly 1, so one ``cumprod`` along the step axis
    gives every path's segment products; a path whose products leave
    ``[1/_CASCADE_LIMIT, _CASCADE_LIMIT]`` is walked step by step instead.
    The paths run in blocks (see :func:`_plan`) that share one impulse loop,
    each in chunks (see :class:`_BlockGrid`).  The first pass over them
    gives the products at the jumps, and on a summarized window (see
    :func:`_summarized`) each segment's largest |product|, its start's
    included, and the products at the record times and the last step:
    division and multiplication round monotonically and alike for both
    signs, so these give the sup and the returned states.  A second pass,
    after the impulse loop, gives every state of the chunks that hold a path
    that needs it: a walked path, or one whose segment bound up to its
    stopping jump is past the threshold or NaN, on a summarized window;
    every path otherwise.  ``cumprod`` and ``cumsum`` are sequential, so
    continuing them from the previous chunk's last column gives the same bits.
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
    rec = np.asarray(() if record_times is None else record_times, dtype=float)
    # a record time before t0 would move every path's start; NaN fails both tests
    if not ((rec >= t0) & (rec <= t1)).all():
        raise ConfigInvalid(f"record times must be finite and lie in the window [{t0!r}, {t1!r}]")
    base, jump_times, jump_ks, base_jidx = _base_boundaries(spec.realization(), t0, t1, cfg.dt_max)
    block = _plan(spec, base.size - 1 + rec.size, jump_times.size, rec.size, collect_path)
    ys = y.tolist()
    for y0 in dict.fromkeys(ys):  # distinct start regimes, in path order
        spec.xi_chain._check_state(y0)
    parts, lo = [], 0
    while lo < n_paths:
        draws = _Draws(spec, t1 - t0, ys[lo : lo + block], streams[lo : lo + block],
                       jump_times.size)
        hi = lo + draws.n
        with np.errstate(all="ignore"):  # an exploding path is a status, not a warning
            parts.append(_integrate(spec, cfg, t0, t1, base, jump_times, jump_ks, base_jidx, rec,
                                    x[lo:hi], y[lo:hi], h[lo:hi], draws, collect_path))
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


def _plan(spec: SystemSpec, width: int, n_jumps: int, n_rec: int, collect_path: bool) -> int:
    """Paths per block for windows of about ``width`` steps, ``n_jumps``
    jumps and ``n_rec`` record times.

    A block's paths share one impulse loop, and run in chunks of whole
    paths (see :func:`simulate_batch`).  A summarized window's block is as
    many paths as twice ``_WORK_BYTES`` holds of what each holds until the
    block ends (see :func:`_jump_bytes`).  Otherwise each chunk runs twice:
    once for the products at the jumps, and once, after the impulses, for
    the states.  The first pass keeps each chunk's products (``8 * dim``
    bytes per step, twice that with the sums of an additive family) for the
    second, and a block is as many paths as twice ``_WORK_BYTES`` holds of
    them with what each holds until the block ends.  Such a block is small
    when the window is long, and every block pays one loop iteration per
    jump, which costs about as much as drawing ``_STEPS_PER_JUMP`` steps of
    a path again.  So when the kept block's steps are fewer than that per
    jump, or one path's products exceed twice the budget, a block is as many
    paths as ``_WORK_BYTES`` holds of what each holds (if more): its first
    groups keep their products, and the rest draw their normals again for
    the second pass.

    ``width`` cannot count switch times, drawn later; the paths that they
    push past the budget draw their normals again too.
    """
    summarized = _summarized(spec, collect_path)
    state = _jump_bytes(n_jumps, n_rec, spec.dim, summarized)
    if summarized:
        return max(1, 2 * _WORK_BYTES // state)
    kept = 2 * _WORK_BYTES // (_kept_bytes(width, spec.dim, _additive(spec)) + state)
    if kept >= 1 and kept * width >= _STEPS_PER_JUMP * n_jumps:
        return kept
    return max(1, kept, _WORK_BYTES // state)


def _kept_bytes(steps, dim: int, additive: bool):
    """Bytes of the products a path of ``steps`` steps keeps through the
    impulse loop: ``steps + 1`` columns of them, and of sums when ``additive``."""
    return (steps + 1) * 8 * dim * (1 + additive)


def _jump_bytes(n_jumps: int, n_rec: int, dim: int, summarized: bool) -> int:
    """Bytes a path holds until its block ends: its state at each jump, and
    3 kB however short its window, its stream bundle, which
    :func:`simulate_ensemble` derives for each block (about 2.4 kB), and its
    generator's state, saved for a second draw (about 0.6 kB).  A summarized
    path also holds its segments' largest products, and the products and
    columns of the states it returns."""
    held = (n_jumps + 1) * (24 * dim + 48) + 3072
    return held + summarized * (8 * (n_jumps + 1) + 16 * (n_rec + 1))


def _summarized(spec: SystemSpec, collect_path: bool) -> bool:
    """Whether a window's paths are summarized by segment: scalar, with no
    additive part, and not collected (see :func:`_integrate`)."""
    return spec.dim == 1 and not _additive(spec) and not collect_path


def _additive(spec: SystemSpec) -> bool:
    """Whether a step's update has a part that does not scale with ``x``."""
    return spec.drift.kind == "constant" or spec.diffusion.kind == "constant"


def _rows(value, shape, dtype) -> np.ndarray:
    """A new array of ``shape`` holding ``value`` broadcast to it."""
    out = np.empty(shape, dtype=dtype)
    out[...] = value
    return out


class _Draws:
    """A block's draws, each path's from its own bundle in a lone path's
    order: its regime chain (its first holding time by :func:`sample_ctmc`'s
    rule, continued by a call to it only if it switches in the window), its
    normals chunk by chunk, then its mark uniforms in one call.  The block
    ends early, after ``n`` paths, where their switch times pass
    ``_WORK_BYTES``: 48 bytes each, with the chain's states, the copy
    inserted in the path's grid, and the column and state the grid keeps.
    Normals drawn again come from a copy of the path's generator set back
    to its saved state."""

    def __init__(self, spec: SystemSpec, span: float, ys: list, streams, n_jumps: int):
        self.spec, self.chains, self.saved = spec, {}, {}
        held, n = 0, len(streams)
        for p, (y, bundle) in enumerate(zip(ys, streams)):
            t = _holding_time(spec.xi_chain, y, bundle.chain)
            if t < span:
                chain = self.chains[p] = sample_ctmc(spec.xi_chain, y, span, bundle.chain, first=t)
                held += 48 * chain.switch_times.size
                if held > _WORK_BYTES:
                    n = p + 1
                    break
        self.n, self.streams = n, streams[:n]
        self.gens = [bundle.wiener for bundle in self.streams]
        self.u_mark = np.empty((n, n_jumps))

    def save(self, paths) -> None:
        """Save each path's generator state, before its first normal."""
        self.saved.update((p, self.gens[p].bit_generator.state) for p in paths)

    def normals(self, paths: list, ns: list, width: int, again: bool = False) -> np.ndarray:
        """The next ``ns[i]`` normals of each path ``paths[i]``, in rows of
        ``width`` steps padded with 0; ``again`` starts them from the first."""
        z = (np.empty if min(ns) == width else np.zeros)((len(ns), width, self.spec.dim))
        for i, (p, n) in enumerate(zip(paths, ns)):
            if again:
                bit_gen = copy.copy(self.gens[p].bit_generator)
                bit_gen.state = self.saved[p]
                self.gens[p] = np.random.Generator(bit_gen)
            self.gens[p].standard_normal(out=z[i, :n])
        return z

    def marks(self, paths: list) -> None:
        """Draw each path's mark uniforms, after its last normals."""
        for p in paths:
            self.streams[p].mark.random(out=self.u_mark[p])

    def mark_path(self, h: np.ndarray, jump_ks: np.ndarray) -> np.ndarray:
        """Each path's mark before the window's jumps, then after each one."""
        marks = sample_dtmc_step(self.spec.eta_chain, h, jump_ks, self.u_mark)
        del self.u_mark
        return np.column_stack((h, marks))


def _step_factors(tables: tuple, regimes, dt, z, additive: bool) -> tuple:
    """Euler's factors ``1 + a dt + b sqrt(dt) Z`` and additive parts (None
    unless ``additive``) of steps of length ``dt`` in ``regimes``, with
    normals ``z`` (coordinates last), from :func:`_coeff_tables`.  A padding
    step, of length 0, has factor 1 and part 0 in any regime, for any normal."""
    a_lin, b_lin, a_con, b_con = tables
    sq = np.sqrt(dt)
    ri = regimes - 1
    m_fac = 1.0 + (a_lin[ri] * dt)[..., None] + (b_lin[ri] * sq)[..., None] * z
    u_add = None
    if additive:
        u_add = (a_con[ri] * dt)[..., None] + (b_con[ri] * sq)[..., None] * z
    return m_fac, u_add


class _BlockGrid:
    """A block's step grids, each path's columns on its own, and its chunks.

    The shared grid is the base grid plus the record times; a path's own
    grid also holds its switch times, inserted where they are not on it.
    Per path, ``at_cols`` holds each segment's first column (``starts``: 0,
    then each jump's, ``jidx``), then those of the states returned
    (``out_cols``: each record time's, ``ridx``, then the last, ``steps``).
    A step starting at ``b`` is in the regime of the last switch ``s`` with
    ``s <= fl(b - t0)``, so each switch acts from one column, found here.
    A chunk is paths ``rows[sel]`` over columns ``a..b``: a group of as many
    whole paths as ``_WORK_BYTES`` holds of work arrays at the widest, or one
    path over a range of its steps; its group keeps its products while all
    kept so far, with the block's state at each jump, fit twice the budget.
    """

    def __init__(self, spec: SystemSpec, t0: float, base, base_jidx, jump_times, rec, y, chains,
                 summarized: bool):
        n_paths, n_jumps = y.size, jump_times.size
        rows = np.arange(n_paths)
        grid, gj = base, base_jidx
        if rec.size:  # a window without record times does not sort its grid again
            grid = np.unique(np.concatenate((base, rec)))
            gj = np.searchsorted(grid, jump_times)
        gr = np.searchsorted(grid, rec)
        self.t0, self.grid, self.y, self.chains = t0, grid, y, chains
        self.at_cols = at_cols = np.zeros((n_paths, n_jumps + rec.size + 2), dtype=np.int64)
        self.starts, self.jidx = at_cols[:, : n_jumps + 1], at_cols[:, 1 : n_jumps + 1]
        self.ridx, self.out_cols = at_cols[:, n_jumps + 1 : -1], at_cols[:, n_jumps + 1 :]
        self.jidx[:], self.ridx[:] = gj, gr
        # path p's switches are sw_ptr[p] up to sw_ptr[p + 1] of the columns
        # they act from and the states they set; those inserted in its grid
        # are kept with their path, the point they go before and their time
        self.sw_ptr = np.zeros(n_paths + 1, dtype=np.int64)
        self.sw_col = self.sw_state = self.own = self.ins_of = self.ins_at = np.empty(0, np.int64)
        self.ins_sw = np.empty(0)
        if chains:
            rel = np.concatenate([chain.switch_times for chain in chains.values()])
            self.sw_state = np.concatenate([chain.states[1:] for chain in chains.values()])
            own = np.fromiter(chains, np.int64, len(chains))
            self.sw_ptr[own + 1] = sizes = [chain.switch_times.size for chain in chains.values()]
            mine = np.cumsum(self.sw_ptr, out=self.sw_ptr).tolist()
            sw, of = t0 + rel, np.repeat(own, sizes)
            at = np.searchsorted(grid, sw)
            keep = grid[np.minimum(at, grid.size - 1)] != sw
            keep[1:] &= (sw[1:] != sw[:-1]) | (of[1:] != of[:-1])
            self.ins_sw, self.ins_at, self.ins_of = sw, at, of = sw[keep], at[keep], of[keep]
            # a path's columns move on by its switch times inserted at or before
            # them: one sorted search, each path's columns offset past the last's
            key, off = at + (grid.size + 1) * of, (grid.size + 1) * rows[:, None]
            before = np.searchsorted(key, off, side="left")
            self.jidx += np.searchsorted(key, off + gj, side="right") - before
            self.ridx += np.searchsorted(key, off + gr, side="right") - before
            # a switch's column counts the points of its path's grid, shared
            # and inserted, whose fl(b - t0) is short of it
            self.sw_col = np.searchsorted(grid - t0, rel)
            ins = np.searchsorted(of, np.arange(n_paths + 1))
            self.own, ins = np.flatnonzero(np.diff(ins)), ins.tolist()
            for p in self.own.tolist():
                k = slice(mine[p], mine[p + 1])
                self.sw_col[k] += np.searchsorted(sw[ins[p] : ins[p + 1]] - t0, rel[k])
        self.steps = steps = grid.size - 1 + np.bincount(self.ins_of, minlength=n_paths)
        self.width = width = int(steps.max())
        at_cols[:, -1] = steps
        # segment s of path p covers columns starts[p, s] up to ends[p, s]
        self.ends = np.concatenate((self.jidx, np.full((n_paths, 1), width + 1)), axis=1)
        limit = max(1, _WORK_BYTES // (128 * spec.dim))
        group = max(1, limit // width)
        held = n_paths * _jump_bytes(n_jumps, rec.size, spec.dim, summarized)
        self.chunks = []
        for lo in range(0, n_paths, group):
            sel = slice(lo, lo + group)
            n = int(steps[sel].max())
            held += rows[sel].size * _kept_bytes(n, spec.dim, _additive(spec))
            self.chunks += [(sel, a, min(a + limit, n), held <= 2 * _WORK_BYTES)
                            for a in range(0, n, limit)]
        # the paths that may draw their normals again, as saving every one's
        # state slows short windows: in a group whose products are not kept,
        # or walked over several chunks (a walk in one takes its factors there)
        self.redrawn = [p for sel, a, b, keep in self.chunks if a or not keep
                        for p in rows[sel].tolist()]

    def grid_of(self, p: int) -> np.ndarray:
        """Path ``p``'s own step grid."""
        lo, hi = np.searchsorted(self.ins_of, (p, p + 1)).tolist()
        if lo == hi:
            return self.grid
        # switch time i goes before grid point at[i], so i places further on
        pos = self.ins_at[lo:hi] + np.arange(hi - lo)
        out = np.empty(self.grid.size + pos.size)
        out[pos] = self.ins_sw[lo:hi]
        on_grid = np.ones(out.size, dtype=bool)
        on_grid[pos] = False
        out[on_grid] = self.grid
        return out

    def bounds_of(self, sel: slice, a: int, b: int) -> np.ndarray:
        """Columns ``a..b`` of the grids of paths ``rows[sel]``, each padded
        with its end point; one shared row when none has a switch inserted.
        A lone path needs no padding: its chunks end by its last column."""
        lo, hi = sel.indices(self.y.size)[:2]
        if hi - lo == 1:
            return self.grid_of(lo)[None, a : b + 1]
        own = self.own[slice(*np.searchsorted(self.own, (lo, hi)))].tolist()
        if not own:
            return self.grid[None, a : b + 1]
        bnd = np.full((hi - lo, b - a + 1), self.grid[-1])
        part = self.grid[a : b + 1]
        bnd[:, : part.size] = part
        for p in own:
            part = self.grid_of(p)[a : b + 1]
            bnd[p - lo, : part.size] = part
            bnd[p - lo, part.size :] = part[-1]
        return bnd

    def steps_of(self, sel: slice, a: int, b: int) -> tuple:
        """The regimes and lengths of steps ``a..b-1`` of paths ``rows[sel]``;
        padding past a path's last step may take any regime."""
        bnd = self.bounds_of(sel, a, b)
        lo, hi = sel.indices(self.y.size)[:2]
        out = np.empty((hi - lo, b - a), dtype=np.int64)
        out[:] = self.y[lo:hi, None]
        k0, k1 = self.sw_ptr[lo], self.sw_ptr[hi]
        # a switch's state runs from its column on, up to a later switch's
        if k0 < k1:
            of = np.repeat(np.arange(hi - lo), np.diff(self.sw_ptr[lo : hi + 1]))
            cols = np.maximum(self.sw_col[k0:k1] - a, 0)
            for r, c, state in zip(of.tolist(), cols.tolist(), self.sw_state[k0:k1].tolist()):
                out[r, c:] = state
        return out, bnd[:, 1:] - bnd[:, :-1]

    def regime_at(self, cols) -> np.ndarray:
        """Each path's regime at column ``cols[p]`` of its grid."""
        of = np.repeat(np.arange(self.y.size), np.diff(self.sw_ptr))
        n_hit = np.bincount(of[self.sw_col <= cols[of]], minlength=self.y.size)
        out, hit = self.y.copy(), n_hit > 0
        out[hit] = self.sw_state[self.sw_ptr[:-1][hit] + n_hit[hit] - 1]
        return out


def _integrate(spec, cfg, t0, t1, base, jump_times, jump_ks, base_jidx, rec, x, y, h, draws,
               collect_path) -> BatchResult:
    """One block of :func:`simulate_batch`, drawing from ``draws``."""
    n_paths, dim = x.shape
    n_jumps = jump_times.size
    rows = np.arange(n_paths)
    additive = _additive(spec)
    summarized = _summarized(spec, collect_path)
    grid = _BlockGrid(spec, t0, base, base_jidx, jump_times, rec, y, draws.chains, summarized)
    starts, jidx, ridx, out_cols, ends = grid.starts, grid.jidx, grid.ridx, grid.out_cols, grid.ends
    steps, width = grid.steps, grid.width

    def factors(sel, a, b, again=False):
        """Step factors and additive parts of steps ``a..b-1`` of paths
        ``rows[sel]``; ``again`` draws their normals again from the first."""
        z = draws.normals(rows[sel].tolist(), (np.minimum(steps[sel], b) - a).tolist(), b - a,
                          again)
        return _step_factors(_coeff_tables(spec), *grid.steps_of(sel, a, b), z, additive)

    draws.save(grid.redrawn)

    # first pass: products and sums at the jumps, and the extremes of each
    # path's products; a summarized path also keeps its products at the
    # columns of the states it returns, and its largest |product| in each
    # segment, its start's included
    cols = grid.at_cols[:, 1:] if summarized else jidx
    p_cols = np.empty((n_paths, 1 + cols.shape[1], dim))
    p_cols[:, 0] = 1.0
    p_start = p_cols[:, : n_jumps + 1]
    c_start = np.zeros((n_paths, n_jumps + 1, dim)) if additive else None
    needs_walk = np.zeros(n_paths, dtype=bool)
    if summarized:
        seg_max = np.zeros((n_paths, n_jumps + 1))

    def first_pass(sel, a, b, before):
        m_fac, u_add = factors(sel, a, b)
        # a path's window's mark uniforms, in one call, after its last normals
        draws.marks(rows[sel][steps[sel] <= b].tolist())
        prod, cum = _products(m_fac, u_add, a, before)
        # |prod|, then one 0, where each segment that starts past b points
        flat = np.empty(prod.size + 1)
        flat[-1] = 0.0
        absp = np.abs(prod, out=flat[:-1].reshape(prod.shape))
        if absp.min() < 1.0 / _CASCADE_LIMIT or absp.max() > _CASCADE_LIMIT:
            needs_walk[sel] |= (absp.min(axis=(1, 2)) < 1.0 / _CASCADE_LIMIT) \
                | (absp.max(axis=(1, 2)) > _CASCADE_LIMIT)
        # the columns kept in a..b; one at a was kept by the chunk before,
        # and is the same there
        g = rows[: prod.shape[0], None]
        jj = cols[sel] - a
        jc = np.minimum(np.maximum(jj, 0), b - a)
        inside = (jc == jj)[..., None]
        np.copyto(p_cols[sel, 1:], prod[g, jc], where=inside)
        if cum is not None:
            np.copyto(c_start[sel, 1:], cum[g, jc], where=inside)
        if summarized:
            # each segment's columns in a..b run from its start, or a, up to
            # the next one's start, or past b; a segment split between chunks
            # meets itself again
            st = starts[sel]
            pos = np.minimum(np.maximum(st, a), b + 1)
            pos += (b - a + 1) * g - a
            most = np.maximum.reduceat(flat, pos.ravel()).reshape(st.shape)
            np.maximum(seg_max[sel], most, out=seg_max[sel], where=(st <= b) & (ends[sel] > a))
        return m_fac, u_add, prod, cum

    kept, chunk_of, part = [], {}, None
    for sel, a, b, keep in grid.chunks:
        m_fac, u_add, *part = first_pass(sel, a, b, part)
        kept.append(part if keep else None)
        chunk_of.update((sel.start + i, (m_fac, u_add, i)) for i in needs_walk[sel].nonzero()[0])
    walked = {}
    for p in needs_walk.nonzero()[0].tolist():
        m_fac, u_add, i = chunk_of[p] if p not in draws.saved else \
            (*factors(slice(p, p + 1), 0, int(steps[p]), again=True), 0)
        walked[p] = (np.zeros((steps[p] + 1, dim)), m_fac[i], None if u_add is None else u_add[i])

    # every path's marks through all the window's jumps, in one draw
    h_hist = draws.mark_path(h, jump_ks)
    gain, offset = _impulse_table(spec, t0, t1, jump_ks, h_hist[:, 1:])
    phi = spec.jump.phi

    # impulses in time order, on every path: a path's draws come from its own
    # streams, so impulses past its stop change nothing it returns, and where
    # each path stops is decided once, after the loop; x_start holds the
    # start, then each post-jump state.  The loop's arrays are jump-major,
    # so each jump reads and writes contiguous rows.
    x_start = np.zeros((n_jumps + 1, n_paths, dim))
    x_start[0] = x
    x_pre = np.zeros((n_jumps, n_paths, dim))
    x_post = x_start[1:]
    x_cur = x
    ratio = np.empty_like(x_pre)
    np.divide(p_start[:, 1:], p_start[:, :-1], out=ratio.transpose(1, 0, 2))
    shift = None
    if additive:
        shift = np.empty_like(x_pre)
        np.multiply(p_start[:, 1:], c_start[:, 1:] - c_start[:, :-1], out=shift.transpose(1, 0, 2))
    for s in range(n_jumps):
        xp = ratio[s] * x_cur
        if shift is not None:
            xp += shift[s]
        for p, (walk, m_row, u_row) in walked.items():
            xp[p] = _walk(walk, m_row, u_row, starts[p, s], jidx[p, s], x_cur[p])
        x_pre[s] = xp
        g = 0.0 if gain is None else gain[s] * phi(xp)
        if offset is not None:
            g = g + offset[s]
        x_cur = x_post[s] = xp + g
        # every path has stopped once each coordinate is past the threshold,
        # since a norm is never below its largest coordinate; the marks of
        # the jumps left are 0, as no path applies them
        if np.abs(x_cur).min() > OVERFLOW_THRESHOLD:
            h_hist[:, s + 2 :] = 0
            break
    for p, (walk, m_row, u_row) in walked.items():
        _walk(walk, m_row, u_row, starts[p, -1], steps[p], x_cur[p])
    x_start, x_pre, x_post = (v.transpose(1, 0, 2) for v in (x_start, x_pre, x_post))
    del ratio, shift, gain  # the loop's own arrays, before the states' arrays

    # a path stops at its first norm over the threshold, in a lone path's
    # order: a segment's steps, the pre-jump state, the post-jump state
    pre_norms = _norms(x_pre)
    post_norms = _norms(x_post, pointwise=True)
    pre_over = pre_norms > OVERFLOW_THRESHOLD
    jump_over = np.empty((n_paths, n_jumps + 1), dtype=bool)
    jump_over[:, -1] = True
    jump_over[:, :-1] = pre_over | (post_norms > OVERFLOW_THRESHOLD)
    stop_jump = jump_over.argmax(axis=1)      # the first jump a path stopped at, else n_jumps

    # per path: the sup of the step norms, the first column over the
    # threshold, the states returned
    sup = np.zeros(n_paths) + np.nan
    first = np.zeros(n_paths, dtype=np.int64) - 1
    x_first = np.empty((n_paths, dim))
    n_first = np.empty(n_paths)
    x_out = np.empty((n_paths, out_cols.shape[1], dim))
    redo = np.ones(n_paths, dtype=bool)
    if summarized:
        # a segment's states are fl(fl(p/P_s) * x_s) for its products p, P_s
        # and x_s at its start: division and multiplication round
        # monotonically and alike for both signs, so its largest |state| is
        # that of its largest |p|, bit for bit, unless it is NaN
        bound = seg_max / np.abs(p_start[..., 0])
        bound *= np.abs(x_start[..., 0])
        sup = np.fmax.reduce(bound, axis=1)
        # a walked path, or one that may pass the threshold inside a segment
        # up to the jump where it stops, takes the per-column pass
        near = (bound > OVERFLOW_THRESHOLD) | np.isnan(bound)
        redo = needs_walk | (near & (np.arange(n_jumps + 1) <= stop_jump[:, None])).any(axis=1)
        # the segment of each returned column is the last that starts at or
        # before it: one sorted search, each path's columns offset past the last's
        off = (width + 2) * rows[:, None]
        seg = np.searchsorted((starts + off).ravel(), (out_cols + off).ravel(), side="right")
        seg = seg.reshape(out_cols.shape) - 1 - (n_jumps + 1) * rows[:, None]
        xs = np.take_along_axis(x_start[..., 0], seg, 1)
        ps = np.take_along_axis(p_start[..., 0], seg, 1)
        # x_s at the segment's start, and p / P_s * x_s after it
        at_start = np.take_along_axis(starts, seg, 1) == out_cols
        x_out[..., 0] = np.where(at_start, xs, p_cols[:, n_jumps + 1 :, 0] / ps * xs)

    # the per-column pass: every state of a chunk, the post-jump state at a
    # jump boundary, on the chunks that hold a path that needs it
    X_all = np.empty((n_paths, width + 1, dim)) if collect_path else None

    def second_pass(sel, a, b, prod_cum, before):
        if prod_cum is None:
            prod_cum = _products(*factors(sel, a, b, again=a == 0), a, before)
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
        if a == 0:  # a summarized path's sup is measured again
            sup[sel] = np.nan
        sup[sel] = np.fmax(sup[sel], np.fmax.reduce(norms, axis=1))
        over = norms > OVERFLOW_THRESHOLD
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
    for i, (sel, a, b, _) in enumerate(grid.chunks):
        if redo[sel].any():
            before = second_pass(sel, a, b, kept[i], before)
        kept[i] = None
    x_end, rec_raw = x_out[:, -1].copy(), x_out[:, :-1]

    # the sup counts the states at the jumps too; a stopped path's sup is
    # the norm that stopped it
    sup = np.fmax(sup, np.fmax.reduce(np.fmax(pre_norms, post_norms), axis=1, initial=0.0))
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
        t_stop[p] = grid.grid_of(p)[stop[p]]
        if X_all is not None:
            X_all[p, stop[p]] = x_end[p]

    # an exploded path contributes no statistics at or past its stop
    rec_alive = ridx <= (stop - exploded)[:, None]
    rec_values = np.where(rec_alive[..., None], rec_raw, np.nan)
    paths = None
    if collect_path:
        paths = [_collect_path(grid, p, X_all[p], jump_ks, int(stop[p]), cfg.record_stride)
                 for p in range(n_paths)]
    return BatchResult(x_end=x_end, y_end=grid.regime_at(stop), h_end=h_hist[rows, n_applied],
                       exploded=exploded, explosion_time=t_stop, sup_norm=sup,
                       jump_times=jump_times, jump_ks=jump_ks, n_jumps=n_applied,
                       marks=h_hist[:, 1:], x_before=x_pre, x_after=x_post,
                       record_values=rec_values, record_alive=rec_alive, paths=paths)


def _products(m_fac, u_add, a, before):
    """Running products P of the step factors and sums S of the additive
    parts over P (None without them) on a chunk of columns a..b, so that
    x(j) = P[j]/P[lo] * x(lo) + P[j] * (S[j] - S[lo]) inside a segment
    [lo, hi]; column a carries them on from ``before``, the chunk before."""
    carry = (1.0, 0.0) if a == 0 else [v if v is None else v[:, -1] for v in before]
    prod = np.empty((m_fac.shape[0], m_fac.shape[1] + 1, m_fac.shape[2]))
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


def _collect_path(grid: _BlockGrid, p: int, X, jump_ks, stop_idx: int, stride: int) -> tuple:
    """Path ``p``'s samples up to its stop: every ``stride``-th, and its events'."""
    bounds, n, chain = grid.grid_of(p), int(grid.steps[p]), grid.chains.get(p)
    regimes = grid.steps_of(slice(p, p + 1), 0, n)[0][0]
    keep = set(range(0, stop_idx + 1, stride))
    keep.add(stop_idx)
    keep.update(int(i) for i in grid.ridx[p] if i <= stop_idx)
    labels = {}
    for ji, k in zip(grid.jidx[p], jump_ks):
        ji = int(ji)
        if ji <= stop_idx:
            keep.add(ji)
            labels[ji] = f"jump:{int(k)}"
    for si in np.searchsorted(bounds, () if chain is None else grid.t0 + chain.switch_times):
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
) -> EnsembleSummary:
    """Simulate ``n_paths`` independent paths and aggregate statistics.

    Each path derives its own streams from its index, so the result does not
    depend on how paths are grouped.  The paths run on the calling thread,
    one :func:`simulate_batch` block at a time (see :func:`_plan`), each
    block's streams derived in one :meth:`RngPolicy.path_streams_batch`
    call.  More than ``MAX_RESULT_BYTES`` of per-path results raises
    :class:`ConfigInvalid` before anything is allocated.
    """
    n_paths = _sample_count(n_paths, "n_paths")
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
    # one block per batch, sized as the integrator sizes them: a block's
    # stream bundles live until its batch ends, and _jump_bytes counts them
    base, jump_times = _base_boundaries(spec.realization(), 0.0, horizon, cfg.dt_max)[:2]
    block = _plan(spec, base.size - 1 + rec.size, jump_times.size, rec.size, False)
    for lo in range(0, n_paths, block):
        hi = min(lo + block, n_paths)
        res = simulate_batch(spec, cfg, 0.0, horizon, spec.x0, spec.y0, spec.h0,
                             policy.path_streams_batch(range(lo, hi)), record_times=rec)
        sq = np.einsum("pij,pij->pi", res.record_values, res.record_values)
        per_path_sq[lo:hi][res.record_alive] = sq[res.record_alive]
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
