"""Property checking and counterexample reproduction with certificates.

Three seeded checkers sample the defining inequalities of degenerate
ellipticity, the uniform-ellipticity gap, and the four per-side witness
conditions. Each checker first walks a deterministic ladder of adversarial
probes (the constructions that actually break non-members: gradients in the
nullspace of Y - X, spike matrices diag(1, 0, ..., 0, c), the double-spike
diag(-n, -n, 1, ..., 1), and scalar ladders c I vs 0) and then runs seeded
random trials. One driver, `_first_violation`, runs both and writes the
verdict. A probe is one outcome it consumes: one per ladder construction, and
for Class M conditions 1 and 2 one per sampled M inside the witness's domain.
Each trial index draws from its own generator stream, so identical configs
give identical reports.

`counterexample` reproduces the named deterministic constructions and emits
a Certificate. Certificates are self-verifying: `reverify()` recomputes the
stored margin from the stored objects. Divergence-style certificates state
literal facts only (a value stays constant or bounded while an extreme
eigenvalue runs away); the step from such a fact to "no witness exists" is a
one-line argument recorded in the certificate description, not something a
finite test can quantify over.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (BadArgument, BadParams, NonFiniteValue, SamplingExhausted, ToolkitError,
                     _integer, _positive, _real)
from .operators import (
    JetPoint,
    MonotoneFunction,
    OperatorDescriptor,
    _jsonable,
    arctan_monotone,
    eig_sum,
    inf_laplace,
    odd_root_monotone,
    p_laplace,
    unit_jet,
)
from .symmat import SymmetricMatrix, elementary_symmetric
from .witnesses import ClassMWitness, ClassUWitness

# A sampled inequality must fail by more than this to count as a violation;
# smaller discrepancies are numerical noise.
VIOLATION_MARGIN = 1e-8

RESAMPLE_CAP = 100_000

_LADDER_EXPONENTS = range(0, 41)

_COND1_GRID = (-1e6, -1e4, -1e2, -1.0, -1e-2, 0.0, 1e-2, 1.0, 1e2, 1e4, 1e6)

# Stream tags: the random trials, and the sampled M of Class M conditions 1 and 2.
_PHASE_TRIALS = 1
_PHASE_COND1 = 2
_PHASE_COND2 = 3

# Streams are hashed _SEED_BLOCK indices at a time; a trial draws _DRAW_BUFFER doubles at a time.
_SEED_BLOCK = _DRAW_BUFFER = 64

# numpy's SeedSequence hash constants, from numpy/random/bit_generator.pyx.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# generate_state xors its word i with _STATE_CONSTS[i] and multiplies it by _STATE_CONSTS[i + 1].
_STATE_CONSTS = [_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9)]


@dataclass(frozen=True)
class SampleConfig:
    seed: int
    trials: int = 10_000
    scale: float = 1.0
    dim: int = 3

    def __post_init__(self):
        for name, lo, hi in (("seed", 0, 2**64 - 1), ("trials", 1, None), ("dim", 1, None)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), lo, BadArgument, hi))
        # draws are uniform on [-scale, scale], whose width 2 * scale must be finite
        scale = _real("scale", self.scale, lambda v: 0.0 < v <= sys.float_info.max / 2.0,
                      "> 0 with 2 * scale finite", BadArgument)
        # an integer scale stays an integer, so a report prints it as it was given
        object.__setattr__(self, "scale",
                           int(self.scale) if hasattr(self.scale, "__index__") else scale)

    def to_json_obj(self) -> dict:
        return _jsonable(self)


@dataclass(frozen=True)
class PassReport:
    kind: str
    trials: int
    probes: int
    config: dict
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return _jsonable(self, "pass_report")


@dataclass(frozen=True)
class Certificate:
    """A concrete, re-checkable instance demonstrating a claim.

    ``witnesses`` holds the matrices/vectors/scalars involved;
    ``inequality_values`` the two sides; ``margin`` the demonstrated gap.
    ``reverify()`` recomputes the margin from the stored objects and must
    reproduce it to 1e-10.
    """

    kind: str
    witnesses: dict
    inequality_values: dict
    margin: float
    trial_index: Optional[int] = None
    description: str = ""
    recheck: Callable[[], float] = field(kw_only=True, repr=False, compare=False)

    def reverify(self) -> float:
        value = float(self.recheck())
        if not abs(value - self.margin) <= 1e-10:  # a NaN margin fails too
            raise ToolkitError(
                f"certificate {self.kind} failed reverification: stored {self.margin!r}, "
                f"recomputed {value!r}"
            )
        return value

    def to_json_obj(self) -> dict:
        return _jsonable(self, "certificate")


def _words32(value: int) -> list:
    """numpy's words for an int >= 0: its little-endian 32-bit words, and [0] for 0."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _u32(value):  # a Python int is masked; a uint32 array has already wrapped
    return value & _MASK32 if type(value) is int else value


def _hashmix(value, const):
    """numpy's hashmix of value under the hash constant const, and the constant after it."""
    following = const * _MULT_A & _MASK32
    value = _u32((value ^ const) * following)
    return value ^ value >> 16, following


def _mix(x, y):
    value = _u32(_u32(_MIX_MULT_L * x) - _u32(_MIX_MULT_R * y))
    return value ^ value >> 16


@functools.lru_cache(maxsize=1)
def _seed_block(seed: int, phase: int, first: int) -> np.ndarray:
    """Row j is SeedSequence((seed, phase, first + j)).generate_state(4, np.uint64), for
    ``first`` a multiple of _SEED_BLOCK. No block straddles a multiple of 2^32, so only
    the index's lowest word varies: it is the one uint32 array, and the other words and
    the hash constants stay Python ints. Checkers open streams in index order, so one
    memo entry is enough."""
    low = first & _MASK32
    entropy = [*_words32(seed), *_words32(phase),
               np.arange(low, low + _SEED_BLOCK, dtype=np.uint32), *_words32(first)[1:]]
    pool, const = [], _INIT_A  # mix_entropy on a pool of 4 words; 3 words leave a 0 slot
    for word in (entropy + [0])[:4]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src, dst in itertools.permutations(range(4), 2):
        word, const = _hashmix(pool[src], const)
        pool[dst] = _mix(pool[dst], word)
    for word, dst in itertools.product(entropy[4:], range(4)):
        word, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], word)
    # generate_state's 8 words from the cycled pool, whose slots all hold arrays by now,
    # paired little-endian into 4 uint64
    consts = np.array(_STATE_CONSTS, dtype=np.uint32)[:, None]
    words = (np.concatenate((pool, pool)) ^ consts[:-1]) * consts[1:]
    words ^= words >> 16
    return words.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type():
    """An ISeedSequence that hands PCG64 one _seed_block row; made on first use, so
    that importing classm does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for 4 np.uint64
            return self.words

    return SeedWords


def _rng(seed: int, phase: int, index: int) -> np.random.Generator:
    """default_rng((seed, phase, index)) to the bit, hashed _SEED_BLOCK indices at a time."""
    offset = index % _SEED_BLOCK
    words = _seed_block(seed, phase, index - offset)[offset]
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


class _Draws:
    """A trial's stream, drawn _DRAW_BUFFER doubles at a time and handed out per
    uniform(-scale, scale, size) call. numpy draws each double as low + (high - low)
    * next_double, one by one, so the pieces have the bytes of separate calls."""

    __slots__ = ("_rng", "_scale", "_buf", "_pos")

    def __init__(self, rng, scale: float):
        self._rng, self._scale, self._pos = rng, scale, 0
        self._buf = rng.uniform(-scale, scale, _DRAW_BUFFER)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        if low != -self._scale or high != self._scale:
            raise ToolkitError(f"trial draws are on +-{self._scale!r}, not [{low!r}, {high!r}]")
        count = size[0] * size[1] if type(size) is tuple else size
        start, stop = self._pos, self._pos + count
        if stop > len(self._buf):
            fresh = self._rng.uniform(low, high, max(count, _DRAW_BUFFER))
            self._buf, start, stop = np.concatenate((self._buf[start:], fresh)), 0, count
        self._pos = stop
        return self._buf[start:stop].reshape(size)


def _sym_draw(rng, n: int, scale: float) -> SymmetricMatrix:
    raw = rng.uniform(-scale, scale, (n, n))  # finite, since 2 * scale is
    return SymmetricMatrix._symmetric((raw + raw.T) / 2.0)


def _psd_draw(rng, n: int, scale: float) -> np.ndarray:
    p = rng.uniform(-scale, scale, (n, n))
    # Each entry of P^T P is at most n scale^2. Entering errstate costs more than a small
    # product, so only a draw that can overflow pays for it; the pair's check refuses the inf.
    if n * scale * scale <= 1e308:
        return p.T @ p
    with np.errstate(over="ignore", invalid="ignore"):
        return p.T @ p


def _jet_draw(rng, n: int, scale: float) -> JetPoint:
    """x, r and nu in stream order; nu is redrawn, up to 64 draws, while |nu| < 1e-6."""
    head = rng.uniform(-scale, scale, 2 * n + 1)  # the doubles of three draws of n, 1 and n
    x, r, nu = head[:n], float(head[n]), head[n + 1:]  # views: nothing writes the buffer
    for attempt in range(64):
        if attempt:
            nu = rng.uniform(-scale, scale, n)
        omega = JetPoint._of_finite(x, r, nu)
        if omega._nu_norm >= 1e-6:
            return omega
    raise SamplingExhausted("could not draw a usable gradient slot")


def _spike_low(n: int, c: float) -> SymmetricMatrix:
    """diag(1, 0, ..., 0, c)."""
    return SymmetricMatrix._symmetric(np.diag([1.0] + [0.0] * (n - 2) + [c]))


def _double_spike(n: int, m: float) -> SymmetricMatrix:
    """diag(-m, -m, 1, ..., 1)."""
    return SymmetricMatrix._symmetric(np.diag([-m, -m] + [1.0] * (n - 2)))


def _ones_tail(n: int, c: float) -> SymmetricMatrix:
    """diag(1, ..., 1, c)."""
    return SymmetricMatrix._symmetric(np.diag([1.0] * (n - 1) + [c]))


def _first_violation(kind: str, cfg: SampleConfig, details: dict, probes, stages):
    """The first Certificate from ``probes``, then from random trials, else the PassReport.

    A probe is one outcome (a Certificate or None) that the lazy ``probes``
    yields to this driver, which counts them. Trial ``idx`` has its own stream
    and runs each stage ``(draw, check, exhausted)`` in turn: ``draw(rng,
    carried)`` is retried until it returns a case, at most RESAMPLE_CAP times,
    then ``check(case, idx)`` runs. ``carried`` is the previous stage's case,
    on the first attempt only.
    """
    count = 0
    for count, cert in enumerate(probes, 1):
        if cert is not None:
            return cert
    for idx in range(cfg.trials):
        rng = _Draws(_rng(cfg.seed, _PHASE_TRIALS, idx), cfg.scale)
        carried = None
        for draw, check, exhausted in stages:
            for _attempt in range(RESAMPLE_CAP):
                case = draw(rng, carried)
                if case is not None:
                    break
                carried = None
            else:
                raise SamplingExhausted(exhausted)
            cert = check(case, idx)
            if cert is not None:
                return cert
            carried = case
    return PassReport(kind=kind, trials=cfg.trials, probes=count, config=cfg.to_json_obj(),
                      details=details)


# ---------------------------------------------------------------------------
# Degenerate ellipticity
# ---------------------------------------------------------------------------

def check_degenerate_ellipticity(op: OperatorDescriptor, cfg: SampleConfig):
    """Sample (omega, X, Y = X + P^T P) in the domain and test F(X) >= F(Y).

    Returns a PassReport, or the Certificate of the first (smallest trial
    index) violation beyond VIOLATION_MARGIN. Domain-violating draws are
    redrawn, up to RESAMPLE_CAP attempts per trial.
    """

    def draw(rng, _carried):
        omega = _jet_draw(rng, cfg.dim, cfg.scale)
        x = _sym_draw(rng, cfg.dim, cfg.scale)
        if not op.in_domain(omega, x):
            return None
        y = SymmetricMatrix(x.entries + _psd_draw(rng, cfg.dim, cfg.scale))
        return (omega, x, y) if op.in_domain(omega, y) else None

    def check(case, idx):
        omega, x, y = case
        fx = op.evaluate(omega, x, checked=False)
        fy = op.evaluate(omega, y, checked=False)
        if fx < fy - VIOLATION_MARGIN:
            return Certificate(
                kind="ellipticity.violation",
                witnesses={"omega": omega, "X": x, "Y": y, "operator": op.name},
                inequality_values={"F_X": fx, "F_Y": fy},
                margin=fy - fx,
                trial_index=idx,
                description="X <= Y but F(omega, X) < F(omega, Y); "
                            "degenerate ellipticity requires F(omega, X) >= F(omega, Y)",
                recheck=lambda: op.evaluate(omega, y) - op.evaluate(omega, x),
            )
        return None

    exhausted = f"{op.name}: no admissible (omega, X, Y) in {RESAMPLE_CAP} draws"
    return _first_violation("degenerate_ellipticity", cfg, {"operator": op.name}, (),
                            [(draw, check, exhausted)])


# ---------------------------------------------------------------------------
# Class U
# ---------------------------------------------------------------------------

def _class_u_probes(cfg: SampleConfig):
    """Deterministic (omega, B, M) probes aimed at the uniform gap.

    The decisive direction puts nu in the nullspace of M - B: with B = 0 and
    M supported away from nu, F(B) - F(M) collapses while tr(M - B) keeps
    growing. Gradient magnitudes sweep 2^-20 .. 2^20 to cover both p > 2 and
    p < 2 prefactor regimes.
    """
    n = cfg.dim
    probes = []
    axes = [0, n - 1] if n >= 2 else [0]
    zero = SymmetricMatrix.zero(n)
    for cexp in (-20, -10, 0, 10, 20):
        c = 2.0 ** cexp
        for axis in axes:
            base = unit_jet(n, axis=axis)
            omega = JetPoint._of_finite(base.x, base.r, base.nu * c)
            for lexp in (0, 10, 20, 40):
                ell = 2.0 ** lexp
                shapes = [SymmetricMatrix(ell * np.eye(n))]
                if n >= 2:
                    tail = np.zeros(n)
                    tail[-1 if axis == 0 else 0] = ell
                    shapes.append(SymmetricMatrix.diagonal(tail))
                for m in shapes:
                    probes.append((omega, zero, m))
    return probes


def _class_u_sides(op: OperatorDescriptor, omega: JetPoint, b: SymmetricMatrix,
                   m: SymmetricMatrix, lam: float, h: float,
                   checked: bool = True) -> tuple[float, float]:
    """F(omega, B) - F(omega, M) and the gap lam tr(M - B) + H, refused when not finite."""
    gap = lam * (m.trace() - b.trace()) + h
    if not math.isfinite(gap):
        raise NonFiniteValue(f"the Class U gap lam tr(M - B) + H of {op.name} overflowed")
    return op.evaluate(omega, b, checked=checked) - op.evaluate(omega, m, checked=checked), gap


def _class_u_certificate(op, omega, b, m, lam, h, sides, description, trial_index=None,
                         **extra) -> Certificate:
    """The class_u.violation certificate for sides = _class_u_sides(op, omega, b, m, lam, h)."""
    lhs, rhs = sides

    def recheck():
        lhs, rhs = _class_u_sides(op, omega, b, m, lam, h)
        return rhs - lhs

    return Certificate(
        kind="class_u.violation",
        witnesses={"omega": omega, "B": b, "M": m, "lam": lam, "H_omega": h,
                   "operator": op.name, **extra},
        inequality_values={"F_B_minus_F_M": lhs, "gap_required": rhs},
        margin=rhs - lhs, trial_index=trial_index, description=description, recheck=recheck)


def check_class_u(op: OperatorDescriptor, w: ClassUWitness, cfg: SampleConfig):
    """Check F(omega, B) - F(omega, M) >= lam tr(M - B) + H(omega) on B <= M.

    Walks the deterministic probe ladder first, then samples random ordered
    pairs (B = M - P^T P). Returns PassReport or the first violation as a
    Certificate.
    """
    probes = _class_u_probes(cfg)
    admits = lambda omega, b, m: op.in_domain(omega, b) and op.in_domain(omega, m)

    def run_one(case, index):  # on a case inside the domain
        omega, b, m = case
        h = float(w.H(omega))
        sides = _class_u_sides(op, omega, b, m, w.lam, h, checked=False)
        if sides[0] < sides[1] - VIOLATION_MARGIN:
            return _class_u_certificate(
                op, omega, b, m, w.lam, h, sides,
                "B <= M but the uniform-ellipticity gap lam tr(M - B) + H(omega) is not met",
                trial_index=index)
        return None

    def draw(rng, _carried):
        omega = _jet_draw(rng, cfg.dim, cfg.scale)
        m = _sym_draw(rng, cfg.dim, cfg.scale)
        b = SymmetricMatrix(m.entries - _psd_draw(rng, cfg.dim, cfg.scale))
        return (omega, b, m) if admits(omega, b, m) else None

    trial = (draw, lambda case, idx: run_one(case, len(probes) + idx),
             f"{op.name}: no admissible (B, M) in {RESAMPLE_CAP} draws")
    return _first_violation("class_u", cfg, {"operator": op.name, "witness": w.name},
                            (run_one(case, index) if admits(*case) else None
                             for index, case in enumerate(probes)), [trial])


# ---------------------------------------------------------------------------
# Class M (conditions 1 to 4)
# ---------------------------------------------------------------------------

def _witness_omega(g: ClassMWitness, cfg: SampleConfig) -> JetPoint:
    if g.context is not None:
        if g.context.dim != cfg.dim:
            raise BadArgument(
                f"witness context dim {g.context.dim} does not match config dim {cfg.dim}"
            )
        return g.context
    return unit_jet(cfg.dim)


def _condition1(g: ClassMWitness, m: SymmetricMatrix) -> Optional[Certificate]:
    """Condition 1 at M in g's domain: g(-, M) rises strictly on the grid and grows at its ends.
    The grid is _COND1_GRID times s = 1, or past |g(0, M)| = 1e6 times the power of two just
    above 1e-6 |g(0, M)|, so that its steps stay resolvable next to g's own size."""
    g0 = g.evaluate(0.0, m, checked=False)
    s = 1.0 if abs(g0) <= 1e6 else math.ldexp(1.0, math.frexp(1e-6 * abs(g0))[1])
    grid = [s * t for t in _COND1_GRID]
    vals = [g.evaluate(t, m, checked=False) if t else g0 for t in grid]
    for pos in range(len(vals) - 1):
        if not vals[pos + 1] > vals[pos]:
            ta, tb = grid[pos], grid[pos + 1]
            return Certificate(
                kind="class_m.condition1",
                witnesses={"witness": g.name, "M": m, "t_lo": ta, "t_hi": tb},
                inequality_values={"g_lo": vals[pos], "g_hi": vals[pos + 1]},
                margin=vals[pos] - vals[pos + 1],
                description=f"t -> {g.which}(t, M) is not strictly increasing "
                            f"between t = {ta:g} and t = {tb:g}",
                recheck=lambda: g.evaluate(ta, m) - g.evaluate(tb, m),
            )
    lo_gap = abs(vals[1] - vals[0])
    hi_gap = abs(vals[-1] - vals[-2])
    if lo_gap <= 1e-6 * (1.0 + abs(vals[1])) or hi_gap <= 1e-6 * (1.0 + abs(vals[-2])):
        ends = "1e4 and 1e6" if s == 1.0 else f"{grid[-2]:g} and {grid[-1]:g}"
        return Certificate(
            kind="class_m.condition1",
            witnesses={"witness": g.name, "M": m},
            inequality_values={"low_end_gap": lo_gap, "high_end_gap": hi_gap},
            margin=min(lo_gap, hi_gap),
            description=f"{g.which}(t, M) shows no growth between the {ends} "
                        "grid ends; an increasing bijection of R must keep growing",
            recheck=lambda: min(abs(g.evaluate(grid[1], m) - g.evaluate(grid[0], m)),
                                abs(g.evaluate(grid[-1], m) - g.evaluate(grid[-2], m))),
        )
    return None


def _inverse_check(g: ClassMWitness, m: SymmetricMatrix, base: float) -> Optional[Certificate]:
    """None if g(base -+ delta, M) straddle 0, delta = 1e-9 (1 + |base|), else class_m.inverse."""
    delta = 1e-9 * (1.0 + abs(base))
    below, above = (g.evaluate(base + side, m, checked=False) for side in (-delta, delta))
    return None if below <= 0.0 <= above else Certificate(
        kind="class_m.inverse", witnesses={"witness": g.name, "M": m, "t_zero": base},
        inequality_values={"g_below": below, "g_above": above}, margin=max(below, -above),
        description=f"{g.which}(t, M) keeps one sign on t = {base:g} +- {delta:g}, "
                    f"so {g.which}(-, M)^{{-1}}(0) = {base:g} is not its zero crossing",
        recheck=lambda: max(g.evaluate(base - delta, m), -g.evaluate(base + delta, m)))


def check_class_m(op: OperatorDescriptor, g1: ClassMWitness, g2: ClassMWitness,
                  cfg: SampleConfig):
    """Check witness conditions 1 to 4 for (g1, g2) against the operator.

    Condition 1: monotone bijection of t on a log grid spanning +-1e6 (stretched past
    |g(0, M)| = 1e6), with a growth probe at the ends. Condition 2: continuity of M ->
    g(-, M)^{-1}(0) under shrinking perturbations (a Hoelder-tolerant two-scale test), then
    that value as g's zero crossing (``class_m.inverse``). Conditions 3 and 4: the per-side
    inequalities, first on a deterministic divergence ladder (lambda_1 walking to -infinity
    along the constructions that break non-members) and then on random ordered pairs.
    Returns a PassReport or the first violation as a Certificate naming the condition.
    """
    omega1 = _witness_omega(g1, cfg)
    omega2 = _witness_omega(g2, cfg)
    n = cfg.dim

    condition1 = (_condition1(g, m) for i in range(min(32, cfg.trials))
                  for m in [_sym_draw(_rng(cfg.seed, _PHASE_COND1, i), n, cfg.scale)]
                  for g in (g1, g2) if g.domain_S(m))

    # Condition 2: two-scale continuity probe for the inverse at zero. The fine perturbation
    # is 1000x smaller; a continuous (even merely Hoelder) map settles well below 0.75x the
    # coarse response, a jump does not. Where it settles, base must be g's zero crossing.
    def condition2():
        for i in range(min(16, cfg.trials)):
            rng = _rng(cfg.seed, _PHASE_COND2, i)
            m = _sym_draw(rng, n, cfg.scale)
            direction = _sym_draw(rng, n, 1.0)
            dscale = float(np.max(np.abs(direction.entries)))
            if dscale == 0.0:
                continue
            direction = direction.scaled(1.0 / dscale)
            coarse = SymmetricMatrix(m.entries + 1e-2 * direction.entries)
            fine = SymmetricMatrix(m.entries + 1e-5 * direction.entries)
            for g in (g1, g2):
                if not (g.domain_S(m) and g.domain_S(coarse) and g.domain_S(fine)):
                    continue
                base = g.inv_at_zero(m, checked=False)
                d_coarse = abs(g.inv_at_zero(coarse, checked=False) - base)
                d_fine = abs(g.inv_at_zero(fine, checked=False) - base)
                yield Certificate(
                    kind="class_m.condition2",
                    witnesses={"witness": g.name, "M": m, "direction": direction},
                    inequality_values={"response_coarse": d_coarse, "response_fine": d_fine},
                    margin=d_fine - 0.75 * d_coarse,
                    description="M -> g(-, M)^{-1}(0) did not settle under a 1000x smaller "
                                "perturbation; the map looks discontinuous at M",
                    recheck=lambda g=g, m=m, coarse=coarse, fine=fine:
                        abs(g.inv_at_zero(fine) - g.inv_at_zero(m))
                        - 0.75 * abs(g.inv_at_zero(coarse) - g.inv_at_zero(m)),
                ) if d_fine > max(0.75 * d_coarse, 1e-7) else _inverse_check(g, m, base)

    # The draws and the ladder decide each pair's domain once, so the checks skip it.
    admits3 = lambda x, m: g1.domain_S(m) and op.in_domain(omega1, x)
    admits4 = lambda y, m: g2.domain_S(m) and op.in_domain(omega2, y)

    def side_check(kind, omega, g, pos, sign, name, value_key, description):
        """Condition 3 (sign 1): -F(omega, X) <= g1(lambda_1(X), M); condition 4 (sign -1):
        -F(omega, Y) >= g2(lambda_N(Y), M). Negation and the factor 1 are exact."""
        def check(case, index):
            x, m = case
            lhs = -op.evaluate(omega, x, checked=False)
            rhs = g.evaluate(float(x.eigenvalues()[pos]), m, checked=False)
            if sign * lhs > sign * rhs + VIOLATION_MARGIN:
                return Certificate(
                    kind=kind, witnesses={"omega": omega, name: x, "M": m, "operator": op.name,
                                          "witness": g.name},
                    inequality_values={"neg_F": lhs, value_key: rhs},
                    margin=sign * lhs - sign * rhs, trial_index=index, description=description,
                    recheck=lambda: (sign * -op.evaluate(omega, x)
                                     - sign * g.evaluate(float(x.eigenvalues()[pos]), m)))
            return None
        return check

    cond3_check = side_check("class_m.condition3", omega1, g1, 0, 1.0, "X", "g1_at_lambda1",
                             "X <= M but -F(omega, X) > g1(lambda_1(X), M)")
    cond4_check = side_check("class_m.condition4", omega2, g2, -1, -1.0, "Y", "g2_at_lambdaN",
                             "-Y <= M but -F(omega, Y) < g2(lambda_N(Y), M)")

    # Deterministic divergence ladder: lambda_1(X) walks to -infinity along
    # fixed constructions while each pair stays ordered (X <= M exactly).
    def ladder():
        identity = SymmetricMatrix.identity(n)
        zero = SymmetricMatrix.zero(n)
        for j in _LADDER_EXPONENTS:
            c = 2.0 ** j
            rung = [(SymmetricMatrix(-c * np.eye(n)), zero)]
            if n >= 2:
                rung.append((_spike_low(n, -c), identity))
                rung.append((_double_spike(n, c), identity))
                rung.append((_ones_tail(n, -c), identity))
            for x, m in rung:
                yield ((cond3_check((x, m), None) if admits3(x, m) else None)
                       or (cond4_check((x.negated(), m), None) if admits4(x.negated(), m)
                           else None))

    # Random ordered pairs: X <= M, then -M <= Y with M redrawn outside g2's domain.
    def draw3(rng, _carried):
        m = _sym_draw(rng, n, cfg.scale)
        x = SymmetricMatrix(m.entries - _psd_draw(rng, n, cfg.scale))
        return (x, m) if admits3(x, m) else None

    def draw4(rng, carried):
        m = carried[1] if carried is not None else _sym_draw(rng, n, cfg.scale)
        y = SymmetricMatrix(_psd_draw(rng, n, cfg.scale) - m.entries)
        return (y, m) if admits4(y, m) else None

    stages = [(draw3, cond3_check, "no admissible (X, M) pair for condition 3"),
              (draw4, cond4_check, "no admissible (Y, M) pair for condition 4")]
    return _first_violation("class_m", cfg, {"operator": op.name, "g1": g1.name, "g2": g2.name},
                            itertools.chain(condition1, condition2(), ladder()), stages)


# ---------------------------------------------------------------------------
# Deterministic counterexample catalog
# ---------------------------------------------------------------------------

def _flat_divergence(kind: str, op: OperatorDescriptor, axis: int, spike, dim: int, c: float,
                     description: str) -> Certificate:
    """-F(e_axis, spike(dim, c')) is the same for c' = 0, -1, -1e3 and c while
    lambda_1 = c' runs away: the certificate, with -F taken from the first rung."""
    dim = _integer("dim", dim, 2)
    c = _real("c", c, lambda v: -math.inf < v <= 0.0, "finite and <= 0")
    omega = unit_jet(dim, axis=axis)
    grid = sorted({0.0, -1.0, -1e3, c}, reverse=True)
    rows = []
    for cval in grid:  # spike(dim, cval) is diagonal with least entry cval, so lambda_1 = cval
        value = -op.evaluate(omega, spike(dim, cval))
        if rows and value != rows[0]["neg_F"]:  # on a fixed rung the program is at fault
            error = ToolkitError if cval in (0.0, -1.0, -1e3) else BadParams
            raise error(f"c = {cval!r} rounds -F to {value!r}, not {rows[0]['neg_F']!r} exactly")
        rows.append({"c": cval, "neg_F": value, "lambda1": cval})
    expected = rows[0]["neg_F"]
    x_last = spike(dim, grid[-1])
    return Certificate(
        kind=kind, description=description,
        witnesses={"omega": omega, "X_at_cmin": x_last, "M": SymmetricMatrix.identity(dim)},
        inequality_values={"neg_F_constant": expected, "lambda1_at_cmin": grid[-1],
                           "grid": rows},
        margin=expected - grid[-1], recheck=lambda: -op.evaluate(omega, x_last) - grid[-1])


def _cert_inf_laplace(dim: int = 2, c: float = -1e6) -> Certificate:
    return _flat_divergence(
        "counterexample.inf_laplace", inf_laplace(), 0, _spike_low, dim, c,
        "-F(e1, diag(1, 0, ..., 0, c)) = 1 for every c <= 0 while lambda_1 = c "
        "runs to -infinity; any increasing bijection g1(., I) eventually drops "
        "below 1, so condition 3 cannot hold")


def _sk_bruteforce(values, k: int):
    """Subset-enumeration oracle for S_k; exact on integer input."""
    return sum(math.prod(combo) for combo in itertools.combinations(values, k))


def _khessian_formula(n: int, k: int, m: int) -> int:
    return (math.comb(n - 2, k - 2) * m * m
            - 2 * math.comb(n - 2, k - 1) * m
            + math.comb(n - 2, k))


def _cert_k_hessian(dim: int = 3, k: int = 2, n: int = 5) -> Certificate:
    dim = _integer("dim", dim, 2)
    k = _integer("k", k, 2, hi=dim)
    n = _integer("n", n, 1)
    rows = []
    for step in range(5):
        nn = n * 2**step
        vals = [-nn, -nn] + [1] * (dim - 2)
        recurrence = elementary_symmetric(k, vals)
        brute = _sk_bruteforce(vals, k)
        formula = _khessian_formula(dim, k, nn)
        if not (recurrence == brute == formula):
            raise ToolkitError(
                f"S_{k} mismatch at n={nn}: recurrence {recurrence}, brute {brute}, "
                f"binomial {formula}"
            )
        rows.append({"n": nn, "neg_F": formula, "lambda1": -nn})
    n_last = n * 2**4
    if rows[-1]["neg_F"] + n_last > sys.float_info.max:  # the margin is the largest value
        raise BadParams(f"n = {n} is too large: the ladder's values do not fit a float")
    x_last = _double_spike(dim, float(n_last))
    return Certificate(
        kind="counterexample.k_hessian",
        witnesses={"X_at_nmax": x_last, "M": SymmetricMatrix.identity(dim),
                   "k": k, "n": n},
        inequality_values={"grid": rows,
                           "neg_F_at_nmax": float(_khessian_formula(dim, k, n_last)),
                           "lambda1_at_nmax": float(-n_last)},
        margin=float(_khessian_formula(dim, k, n_last) + n_last),
        description="-F_k(diag(-n, -n, 1, ..., 1)) = C(N-2,k-2) n^2 - 2 C(N-2,k-1) n + "
                    "C(N-2,k) grows to +infinity while lambda_1 = -n runs to -infinity, so "
                    "no increasing bijection can dominate it along the ladder; the binomial "
                    "value is cross-checked against exact subset enumeration",
        recheck=lambda: float(_sk_bruteforce([-n_last, -n_last] + [1] * (dim - 2), k)
                              + n_last),
    )


def _cert_p1_laplace(dim: int = 4, c: float = -100.0) -> Certificate:
    return _flat_divergence(
        "counterexample.p1_laplace", p_laplace(1), -1, _ones_tail, dim, c,
        "-F_1(e_N, diag(1, ..., 1, c)) = (N-1+c) - c = N-1 for every c <= 0 "
        "while lambda_1 = c runs to -infinity; as with the inf-Laplacian this "
        "contradicts condition 3 for any candidate g1")


def _cert_power_not_u(d: int = 3, dim: int = 2, lam: float = 1.0,
                      h_const: float = 0.0) -> Certificate:
    dim = _integer("dim", dim, 2)
    lam = _positive("lam", lam)
    k_const = _real("H", h_const, math.isfinite, "finite")
    op = eig_sum(odd_root_monotone(d))
    omega = unit_jet(dim)
    zero = SymmetricMatrix.zero(dim)
    for j in range(0, 120):
        n = 2.0 ** j
        x = SymmetricMatrix.diagonal([-n] + [-1.0 / n] * (dim - 1))
        sides = _class_u_sides(op, omega, x, zero, lam, k_const)
        if sides[0] < sides[1] - max(VIOLATION_MARGIN, 1e-8 * abs(sides[1])):
            return _class_u_certificate(
                op, omega, x, zero, lam, k_const, sides,
                f"X_n = -diag(n, 1/n, ..., 1/n) with n = {n:g}: the gap lam tr(-X_n) + K "
                "grows like lam n but F(X_n) - F(0) only like n^(1/d), so the "
                "uniform-ellipticity inequality fails", n=n)
    raise BadParams(f"no violating n below 2^120 for lam = {lam:g}, H = {k_const:g}")


def _cert_p_laplace_not_u(p: float = 4.0, dim: int = 2, lam: float = 1.0,
                          h_const: float = 0.0) -> Certificate:
    p = _positive("p", p)
    dim = _integer("dim", dim, 2)
    lam = _positive("lam", lam)
    h_val = _real("H", h_const, math.isfinite, "finite")
    if p == 2.0:
        raise BadParams("p = 2 is the Laplacian, which is uniformly elliptic")
    op = p_laplace(p)
    # |c|^(p-2) = lam/2 < lam puts nu in the flat regime; nu = c e1 then lies
    # in the nullspace of Y - X for Y supported on the last axis.
    try:  # near p = 2, c overflows or underflows; for huge p it rounds to 1
        c = (lam / 2.0) ** (1.0 / (p - 2.0))
        realised = c ** (p - 2.0)
    except (OverflowError, ZeroDivisionError):
        c = realised = math.inf
    if not (math.isfinite(c) and c >= 1e-10 and realised < lam):
        raise BadParams(f"cannot realize |c|^(p-2) = lam/2 for p={p}, lam={lam}")
    base = unit_jet(dim)
    omega = JetPoint(base.x, base.r, base.nu * c)
    ell = 2.0 * (abs(h_val) + 1.0) / lam + 1.0
    tail = np.zeros(dim)
    tail[-1] = ell
    y = SymmetricMatrix.diagonal(tail)
    x = SymmetricMatrix.zero(dim)
    sides = _class_u_sides(op, omega, x, y, lam, h_val)
    if not sides[0] < sides[1] - VIOLATION_MARGIN:  # the rounded |c|^(p-2) sits too close to lam
        raise BadParams(f"|c|^(p-2) = {realised!r} leaves no gap for lam={lam}, H={h_val}")
    return _class_u_certificate(
        op, omega, x, y, lam, h_val, sides,
        "nu = c e1 sits in the nullspace of Y = diag(0, ..., 0, l), so "
        "F_p(nu, 0) - F_p(nu, Y) = |nu|^(p-2) l, while the required gap is "
        "lam l + H; with |c|^(p-2) = lam/2 and l large the gap wins", c=c, l=ell)


def _cert_bounded_h(dim: int = 3, h: MonotoneFunction | None = None) -> Certificate:
    dim = _integer("dim", dim, 1)
    op = eig_sum(arctan_monotone() if h is None else h)
    h = op.params["h"]
    below = h.bounded_below is not None
    above = h.bounded_above is not None
    if not (below or above):
        raise BadParams(f"{h.name} is unbounded both ways; there is nothing to certify")
    omega = unit_jet(dim)
    # Work on whichever side H saturates: -F_H(c I) = N H(c) stays on one
    # side of the floor/ceiling while the matching extreme eigenvalue c runs
    # away, which starves condition 3 (below) or condition 4 (above).
    sign = -1.0 if below else 1.0
    bound = dim * (h.bounded_below if below else h.bounded_above)
    rows = []
    for j in range(0, 41, 5):
        cmag = 2.0 ** j
        x = SymmetricMatrix(sign * cmag * np.eye(dim))
        value = -op.evaluate(omega, x)
        ok = value >= bound if below else value <= bound
        if not ok:
            raise ToolkitError("bounded H escaped its own bound; broken MonotoneFunction")
        rows.append({"c": sign * cmag, "neg_F": value,
                     "extreme_eigenvalue": sign * cmag})
    c_last, x_last, value_last = rows[-1]["c"], x, value
    return Certificate(
        kind="counterexample.bounded_h",
        witnesses={"X_at_extreme": x_last, "M": SymmetricMatrix.zero(dim), "H": h,
                   "bound": bound, "side": "below" if below else "above"},
        inequality_values={"grid": rows, "neg_F_at_extreme": value_last,
                           "bound": bound, "extreme_eigenvalue": c_last},
        margin=abs(value_last - c_last),
        description=f"-F_H(c I) = N H(c) stays {'above' if below else 'below'} "
                    f"{bound:g} while the extreme eigenvalue c runs to "
                    f"{'-' if below else '+'}infinity; an increasing bijection evaluated "
                    "there must diverge, so no witness pair can satisfy conditions 3 and 4",
        recheck=lambda: abs(-op.evaluate(omega, x_last) - c_last),
    )


_COUNTEREXAMPLES = {
    "inf_laplace": _cert_inf_laplace,
    "k_hessian": _cert_k_hessian,
    "p1_laplace": _cert_p1_laplace,
    "power_not_u": _cert_power_not_u,
    "p_laplace_not_u": _cert_p_laplace_not_u,
    "bounded_h": _cert_bounded_h,
}


def counterexample(name: str, **params) -> Certificate:
    """Reproduce a named deterministic construction as a Certificate.

    Names: inf_laplace, k_hessian, p1_laplace, power_not_u, p_laplace_not_u,
    bounded_h. BadParams on dimensionally invalid parameters.
    """
    ctor = _COUNTEREXAMPLES.get(name)
    if ctor is None:
        raise BadParams(f"unknown counterexample {name!r}; known: {sorted(_COUNTEREXAMPLES)}")
    try:
        return ctor(**params)
    except TypeError as exc:
        raise BadParams(f"bad parameters for counterexample {name!r}: {exc}") from exc
