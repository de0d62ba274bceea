"""Closed-form quantities: thresholds, first-moment expectations, the
domination probability, and the non-convergence witness sequences.

Expectations are carried as LogReal (sign plus natural-log magnitude)
because the values overflow floats long before interesting parameters.

Window-membership certificates trust a float only under a proven error
bound.  Every window comparison places an integer against an endpoint
q * f(x) + add (q, add rational, x a positive integer, f(x) = x^alpha
ln x).  The first rung computes the endpoint in doubles, widened by a
bound on their rounding error (derived in _Comparer), and decides with
Python's exact int/float comparison where that interval separates the
two.  Where it does not, or where the doubles overflow, the comparison
falls through to the integer bracket ceil(lo), floor(hi) of an
outward-rounded enclosure [lo, hi] of the endpoint, at escalating
precision from 80 bits until the two separate, and raises
UndecidableComparisonError instead of guessing where they never do; a
rational N/D is placed as N against D q f(x) + D add.  The float inverse
of f only seeds the floor search.  The enclosures of the rational
constants are kept across calls, those of f(x) and the brackets only
within one.  The part-2 size inequalities v^q <= x^p are placed on q ln v
and p ln x, in doubles first and then on interval enclosures, and
decided on exact integers only where those never separate.

mpmath is not imported with the module.  The first comparison that the
doubles leave open binds the libmp primitives, and the
arbitrary-precision branches import it where they run: ln n!/(n - s)!
past n = 10^12, the floor search's seed past the float range and the
float logarithms of part-2 rows.  So sampling, domination, the first
moments below n = 10^12 and the part-1 window reports of the Monte Carlo
grid never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

from .witness import (
    omega,
    w_edge_count,
    w_star_edge_count,
    w_star_vertex_count,
    w_vertex_count,
)

_PRECISIONS = (80, 160, 320, 640, 1280, 2560, 5120)
# mpmath's rounding modes, the strings its API takes as rounding=.
_FLOOR, _CEILING = "f", "c"
# The mpmath.libmp interval primitives of the window comparisons.  mpmath
# loads on the first comparison that the doubles leave open, not with the
# package: until then each name is a stand-in whose one call binds every
# name below to the libmp function and forwards, so the comparisons call
# plain module globals from then on.
_LIBMP = ("from_int", "mpf_gt", "mpf_le", "mpi_add", "mpi_div", "mpi_exp",
          "mpi_log", "mpi_mul", "to_int")


def _stand_in(name):
    def first_call(*args):
        from mpmath import libmp

        globals().update((n, getattr(libmp, n)) for n in _LIBMP)
        return globals()[name](*args)

    return first_call


(from_int, mpf_gt, mpf_le, mpi_add, mpi_div, mpi_exp, mpi_log, mpi_mul,
 to_int) = map(_stand_in, _LIBMP)


class ParameterError(ValueError):
    """Inadmissible alpha/beta/gamma/r combination."""


class UndecidableComparisonError(ArithmeticError):
    """A window comparison stayed ambiguous at the highest precision."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # Decimal literal intent: 0.3 means 3/10, not the binary float.
        return Fraction(str(x))
    return Fraction(x)


# ---------------------------------------------------------------------------
# LogReal

@dataclass(frozen=True)
class LogReal:
    """A nonnegative real as sign (0 for zero, else 1) and natural-log
    magnitude: the record that the first moments return."""

    sign: int
    log: float

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(0, float("-inf"))

    @classmethod
    def from_log(cls, log: float) -> "LogReal":
        return cls.zero() if log == float("-inf") else cls(1, log)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log)
        except OverflowError:
            return self.sign * math.inf


# ---------------------------------------------------------------------------
# Threshold scalars

def _k_gamma_frac(gamma: int, alpha: Fraction) -> Fraction:
    if gamma < 0:
        raise ParameterError("gamma must be nonnegative")
    return 2 * (1 - alpha * (gamma + 2) / (gamma + 1))


def k_gamma(gamma: int, alpha: float) -> float:
    """2 * (1 - alpha * (gamma + 2) / (gamma + 1))."""
    if not 0 < alpha < 1:
        raise ParameterError("alpha must lie in (0, 1)")
    return float(_k_gamma_frac(gamma, _as_fraction(alpha)))


def f(x: float, alpha: float) -> float:
    """x^alpha * ln x, strictly increasing on [1, inf)."""
    if x < 1:
        raise ValueError("f is defined on [1, inf)")
    lx = math.log(x)  # accepts arbitrarily large ints
    try:
        return math.exp(alpha * lx) * lx
    except OverflowError:
        return math.inf


def inverse_f(target: float, alpha: float) -> float:
    """Unique x >= 1 with f(x) = target, in floats.

    Newton's method on ln x (_ln_preimage) rises monotonically to the
    float root, good to a few ulps of ln x.  Below 2**53, where the exact
    floor search takes x as its seed, that is up to 2e-15 relative, a few
    units; one Newton step on f itself, whose residual x^alpha ln x -
    target keeps the digits that rounding ln x loses, brings the seed
    within about a unit of the preimage.  A target below 2**-53 gives
    1.0, since f(x) >= ln x puts its preimage closer to 1 than floats
    resolve; a preimage past the float range gives inf.  alpha must be
    finite and positive: f is not increasing otherwise.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be finite and positive")
    if not math.isfinite(target):
        raise ValueError("target must be finite")
    if target < 0:
        raise ValueError("target must be nonnegative")
    if target < 2**-53:
        return 1.0
    try:
        x = math.exp(_ln_preimage(target, alpha, math))
    except OverflowError:
        return math.inf
    ln_x, power = math.log(x), x**alpha
    return x - x * ((power * ln_x - target) / (power * (alpha * ln_x + 1)))


def _ln_preimage(t, alpha, lib):
    """L = ln x for the x > 1 with f(x) = t > 0, by Newton's method on
    g(L) = alpha L + ln L - ln t in lib's arithmetic: math's floats or
    mpmath's working precision.

    g is increasing and concave, so a Newton step from below the root
    lands below it again, nearer: from a start below the root the
    iterates rise monotonically, and the first step that does not raise
    L marks the rounding floor.  With z = alpha t the root is W(z) / alpha
    for Lambert's W, and the start is a lower bound of it: W(z) >= z e^-z,
    close for small z, and W(z) >= ln(1+z) - ln(1 + ln(1+z)) for z >= 1.
    """
    z = alpha * t
    if z < 1:
        L = z * lib.exp(-z) / alpha
    else:
        lz = lib.log1p(z)
        L = (lz - lib.log1p(lz)) / alpha
    ln_t = lib.log(t)
    while True:
        nxt = L + (ln_t - alpha * L - lib.log(L)) / (alpha + 1 / L)
        if not nxt > L:
            return L
        L = nxt


# ---------------------------------------------------------------------------
# Exact window comparisons

def _point(n: int, prec: int):
    """Enclosure of the integer n by prec-bit endpoints, exact when n fits."""
    return from_int(n, prec, _FLOOR), from_int(n, prec, _CEILING)


@functools.lru_cache(maxsize=512)
def _constant(q, prec: int):
    """Enclosure at prec bits of a rational constant of the windows: alpha
    and the endpoint factors q and add, times the denominator of the
    rational placed against them.  There are a few per parameter tuple,
    so they are kept across calls, one per (rational, precision)."""
    if q.denominator == 1:
        return _point(q.numerator, prec)
    return mpi_div(_point(q.numerator, prec), _point(q.denominator, prec), prec)


def _enclose_ln(x: int, prec: int):
    """Enclosure of ln x for an integer x >= 1 at prec bits, the one that
    iv.log(iv.mpf(x)) gives."""
    return mpi_log(_point(x, prec), prec)


def _in_doubles(alpha: float, x: int) -> tuple[float, float, float]:
    """The float rung's view of x: ln x, f(x) and the bound on f(x)'s
    relative error that _Comparer derives, in doubles.  f(x) is inf where
    it overflows a double, and so is the bound where x^alpha does."""
    ln_x = math.log(x)  # accepts arbitrarily large ints
    y = alpha * ln_x
    try:
        power = math.exp(y)
    except OverflowError:
        return ln_x, math.inf, math.inf
    return ln_x, power * ln_x, (abs(y) + 2) * 2.0**-41


class _Comparer:
    """Window comparisons at one integer x >= 1 for one alpha.

    Each comparison tries doubles first.  ln x and f(x) = x^alpha ln x are
    computed once in doubles, with a bound on the relative error of f(x).
    With u = 2^-53, and math.log and math.exp good to 2 ulps (4u
    relative): L = log(x) is within 6u of ln x relative (4u, plus u where
    x is rounded to a double past 2^53 or split into mantissa and
    exponent past the float range); y = float(alpha) L is within 9u |y|
    of alpha ln x (u each for float(alpha) and the product, to first
    order); exp(y) is within 4u + 9u |y| (1 + 2^-30) of x^alpha relative,
    since |y| < 710 wherever it does not overflow; so f = exp(y) L is
    within 4u + 9u |y| + 6u + u + O(u^2) <= 9u (|y| + 2) of f(x).  The
    bound kept is (|y| + 2) 2^-41 = 4096u (|y| + 2), 455 times that worst
    case, and more than 2^8 times it under log and exp good to 4 ulps.
    _Endpoint widens q f(x) + add by it, and power_leq takes the same
    margin on its logarithms.

    Where the doubles leave a comparison open, ln x and f(x) are enclosed
    once per precision, when a comparison first needs that precision,
    with the mpmath.libmp interval primitives that mpmath's iv context
    calls; every endpoint at x shares them.  One is made per x of a
    public call and dropped with it, so no enclosure of f(x) is kept
    between calls; sequence_part1 hands the one its floor search ends on
    to the window at that floor.
    """

    def __init__(self, alpha: Fraction, x: int):
        if x < 1:
            raise ValueError("endpoint argument x must be >= 1")
        self.alpha = alpha
        self.x = x
        # float(alpha), without Fraction's generic __float__ call.
        self.ln_d, self.f_d, self.f_err = _in_doubles(alpha.numerator / alpha.denominator, x)
        self._ln: dict[int, tuple] = {}
        self._f: dict[int, tuple] = {}

    def ln(self, prec: int):
        ln = self._ln.get(prec)
        if ln is None:
            ln = self._ln[prec] = _enclose_ln(self.x, prec)
        return ln

    def f(self, prec: int):
        fx = self._f.get(prec)
        if fx is None:
            ln = self.ln(prec)
            power = mpi_exp(mpi_mul(_constant(self.alpha, prec), ln, prec), prec)
            fx = self._f[prec] = mpi_mul(power, ln, prec)
        return fx

    def compare(self, s, q: Fraction, add: Fraction = Fraction(0)) -> int:
        """Sign of s - (q * f(x) + add) for a rational s = N/D: that of
        the integer N against the scaled endpoint D q f(x) + D add."""
        d = s.denominator
        if d != 1:
            q, add = d * q, d * add
        return _Endpoint(self, q, add).sign(s.numerator)

    def power_leq(self, v: int, beta: Fraction) -> bool:
        """v <= x^beta for a positive integer v, beta = p/q: q ln v against
        p ln x, first in doubles, then on enclosures at escalating
        precision, and on exact integers where those never separate.

        In doubles each side is within 8u of its value (6u for the log, u
        each for the float of p or q and the product), and the slack
        (q ln v + p ln x) 2^-41 covers both and the rounding of the two
        sums 400-fold.  p or q past the float range skip the doubles."""
        p, q = beta.numerator, beta.denominator
        try:
            lv, lx = q * math.log(v), p * self.ln_d
        except OverflowError:
            lv = lx = math.nan
        slack = (lv + lx) * 2.0**-41
        if lv + slack < lx:
            return True
        if lv > lx + slack:
            return False
        for prec in _PRECISIONS:
            lv_lo, lv_hi = mpi_mul(_enclose_ln(v, prec), _point(q, prec), prec)
            lx_lo, lx_hi = mpi_mul(self.ln(prec), _point(p, prec), prec)
            if mpf_le(lv_hi, lx_lo):
                return True
            if mpf_gt(lv_lo, lx_hi):
                return False
        return _power_leq(v, self.x, beta)


class _Endpoint:
    """The window endpoint q * f(x) + add at one _Comparer's x.

    The one placement rule: an integer s is placed first against the
    float interval [lo, hi] around the endpoint computed in doubles, then
    against the integer bracket ceil(lo), floor(hi) of the endpoint's
    enclosure [lo, hi], taken once per precision: s < ceil(lo) exactly
    when s < lo, and s > floor(hi) exactly when s > hi.  f(1) = 0 and
    q = 0 make the endpoint the rational add, compared exactly.

    The float interval is e -+ err with e = float(q) f + float(add) for
    the double f of f(x) and

        err = 2 (|q f| (r + 2^-50) + (|q f| + |add|) 2^-50) + 2^-1000,

    r being _Comparer's bound on f.  float(q) and the product round q f
    by at most 2u, float(add) rounds add by u and the sum rounds by u of
    |q f| + |add|; each is taken as 2^-50 = 8u, on |q f| and |add| rather
    than on |e|, so cancellation in the sum is covered.  The factor 2
    covers second-order terms, the rounding of err itself and of e -+ err;
    2^-1000 covers results that underflow to subnormals.  Python compares
    an int with a float exactly.  Where err is not finite (f(x), q or add
    past the float range) lo and hi are nan and every comparison with
    them falls through.
    """

    def __init__(self, at: _Comparer, q: Fraction, add: Fraction = Fraction(0)):
        self._at = at
        self._q = q
        self._add = add
        self._exact = add if at.x == 1 or q == 0 else None
        self._lo = self._hi = math.nan
        if self._exact is None:
            self._lo, self._hi = self._float_interval()
        self._brackets: dict[int, tuple[int, int]] = {}

    def _float_interval(self) -> tuple[float, float]:
        q, add = self._q, self._add
        try:  # float(q) and float(add), as _Comparer takes float(alpha)
            qf = q.numerator / q.denominator * self._at.f_d
            a = add.numerator / add.denominator
        except OverflowError:
            return math.nan, math.nan
        err = 2 * (abs(qf) * (self._at.f_err + 2.0**-50)
                   + (abs(qf) + abs(a)) * 2.0**-50) + 2.0**-1000
        if not math.isfinite(err):
            return math.nan, math.nan
        e = qf + a
        return e - err, e + err

    def _bracket(self, prec: int) -> tuple[int, int]:
        b = self._brackets.get(prec)
        if b is None:
            e = mpi_mul(_constant(self._q, prec), self._at.f(prec), prec)
            if self._add:
                e = mpi_add(e, _constant(self._add, prec), prec)
            lo, hi = e
            b = self._brackets[prec] = (to_int(lo, _CEILING), to_int(hi, _FLOOR))
        return b

    def sign(self, s: int) -> int:
        """Sign of s - (q * f(x) + add) for an integer s, decided only
        where the float interval or a bracket separates the two."""
        if self._exact is not None:
            return (s > self._exact) - (s < self._exact)
        if s < self._lo:
            return -1
        if s > self._hi:
            return 1
        for prec in _PRECISIONS:
            lo, hi = self._bracket(prec)
            if s < lo:
                return -1
            if s > hi:
                return 1
        raise UndecidableComparisonError(
            f"comparison of {s} against {self._q}*f({self._at.x})+{self._add} "
            "undecided at max precision"
        )


def _iroot(x: int, p: int) -> int:
    """floor(x ** (1/p)) for nonnegative integer x, exact.

    As math.isqrt does for p = 2, the root of x >> (p * k), with k a
    little under half the root's bits, is taken recursively and shifted
    back up; it lies less than 2^k above the root.  Newton's method from
    above converges quadratically, so one step from there, a full-size
    division, lands within a unit of the root and exact powers settle
    that unit.  A start within a factor 2 of the root needs about log2
    of the root's bits of such divisions.
    """
    if x < 0 or p < 1:
        raise ValueError("need x >= 0 and p >= 1")
    if x in (0, 1) or p == 1:
        return x
    if p == 2:
        return math.isqrt(x)
    k = x.bit_length() // (2 * p) - 2 * p - 2
    if k < 32:
        guess = 1 << ((x.bit_length() + p - 1) // p)
    else:
        guess = (_iroot(x >> (p * k), p) + 1) << k
    while True:
        nxt = ((p - 1) * guess + x // guess ** (p - 1)) // p
        if nxt >= guess:
            break
        step, guess = guess - nxt, nxt
        if 2 * (step.bit_length() + p + 1) < guess.bit_length():
            break  # the next step would move guess by less than one
    while guess**p > x:
        guess -= 1
    while (guess + 1) ** p <= x:
        guess += 1
    return guess


# ---------------------------------------------------------------------------
# Expectations

def _log_falling_factorial(n: int, s: int) -> float:
    """ln n!/(n - s)! = ln C(n, s) s!, the log of the number of labeled
    s-vertex patterns in n vertices.

    Up to n = 10^12 it is the float lgamma expression that the first-moment
    pins were taken with.  Past that the float terms, of size n ln n, keep
    too few digits of their difference (at n = 10^18, none), so the
    difference is taken at working precision and rounded once.
    """
    if n <= 10**12:
        lg = math.lgamma
        return lg(n + 1) - lg(s + 1) - lg(n - s + 1) + lg(s + 1)
    import mpmath

    with mpmath.workdps(len(str(n)) + 20):
        return float(mpmath.loggamma(n + 1) - mpmath.loggamma(n - s + 1))


def _xlogy(e, y: float) -> float:
    """e * ln y with the 0 * ln 0 = 0 convention used by p-exponents."""
    if e == 0:
        return 0.0
    if y == 0.0:
        return float("-inf")
    return e * math.log(y)


def _check_p(p: float) -> None:
    if not 0 <= p <= 1:  # false for nan too
        raise ParameterError("p must lie in [0, 1]")


def _check_moment_args(p: float, gamma: int) -> None:
    """The first moments' checks, made before any arithmetic: W(a, gamma,
    r) is defined for gamma >= 0 only, and p is a probability."""
    if gamma < 0:
        raise ParameterError("gamma must be nonnegative")
    _check_p(p)


def _first_moment(
    n: int, p: float, s: int, e: int, t: int, r: int, log_r_factorial: float
) -> LogReal:
    """C(n, s) * s! / (r!)^((t-1)/r) * p^e * (1-p)^(C(s,2)-e): the labeled
    first moment of an s-vertex, e-edge pattern (Janson, Luczak and
    Rucinski, Random Graphs, 2000, ch. 3) with the divisor of the witness
    families.  Each caller passes its own ln r!: expected_W's
    math.log(24.0) and lgamma(5) differ in the last bit.
    """
    if s > n:
        raise ParameterError(f"pattern size s={s} exceeds n={n}")
    # t = omega(k, r), and t >= 1 exactly when the floor a >= 1.  Then
    # k >= 1 and t - 1 = r * omega(k - 1, r), so the exponent is integral.
    if t < 1:
        raise ParameterError("a must be at least 1")
    log = (
        _log_falling_factorial(n, s)
        - (t - 1) // r * log_r_factorial
        + _xlogy(e, p)
        + _xlogy(s * (s - 1) // 2 - e, 1.0 - p)
    )
    return LogReal.from_log(log)


def expected_W(n: int, p: float, a: int, gamma: int) -> LogReal:
    """First moment of labeled induced W(a) copies (r = 4):

        C(n, s) * s! / 24^((omega(a)-1)/4) * p^E * (1-p)^(C(s,2)-E)

    with s = a + (gamma+1) * omega(a) and E = a + (gamma+2) * omega(a) - 2.
    """
    _check_moment_args(p, gamma)
    return _first_moment(
        n, p, w_vertex_count(a, gamma, 4), w_edge_count(a, gamma, 4),
        omega(a, 4), 4, math.log(24.0),
    )


def _log_domination_factor(n: int, s: int, p: float) -> float:
    """(n - s) * ln(1 - (1-p)^s), stable for small p."""
    if n == s:
        return 0.0
    if p == 0.0 or s == 0:
        return float("-inf")
    if p == 1.0:
        return 0.0
    log_q_pow = s * math.log1p(-p)  # ln (1-p)^s
    return (n - s) * math.log1p(-math.exp(log_q_pow))


def expected_W_dominating(n: int, p: float, a: int, gamma: int) -> LogReal:
    """expected_W scaled by the probability (1 - (1-p)^s)^(n-s) that a
    fixed s-set dominates the rest."""
    base = expected_W(n, p, a, gamma)
    s = w_vertex_count(a, gamma, 4)
    return LogReal.from_log(base.log + _log_domination_factor(n, s, p))


def expected_W_star(n: int, p: float, a: int, gamma: int, r: int) -> LogReal:
    """First moment of labeled induced W*(a) copies:

        C(n, s) * s! / (r!)^((omega(omega(a))-1)/r) * p^E * (1-p)^(C(s,2)-E)
    """
    _check_moment_args(p, gamma)
    return _first_moment(
        n, p, w_star_vertex_count(a, gamma, r), w_star_edge_count(a, gamma, r),
        omega(omega(a, r), r), r, math.lgamma(r + 1),
    )


def domination_probability(n: int, p: float, k: int) -> float:
    """Probability that a fixed k-set dominates G(n, p)."""
    if not 0 <= k <= n:
        raise ParameterError(f"k={k} out of range for n={n}")
    _check_p(p)
    return math.exp(_log_domination_factor(n, k, p))


# ---------------------------------------------------------------------------
# Part-1 sequences (r = 4 family)

@dataclass(frozen=True)
class Part1Constants:
    alpha: Fraction
    gamma: int
    k: Fraction
    c: Fraction
    epsilon: Fraction
    C1: Fraction
    C2: Fraction
    C: Fraction


def part1_constants(alpha, gamma: int) -> Part1Constants:
    """The part-1 constants, fixed from b = (1 - alpha) / k_gamma:
    C1 = b + 1/20, C2 = 19/20, C = (b + 1)/2, c = 4b/5 and epsilon = 1.

    The part-1 argument needs b < C < 1, C1 < C < C2 and 0 < c < b.  With
    these choices each holds exactly when b < 9/10 (b > 0 since
    k_gamma > 0).
    """
    alpha = _as_fraction(alpha)
    if not 0 < alpha < 1:
        raise ParameterError("alpha must lie in (0, 1)")
    k = _k_gamma_frac(gamma, alpha)
    if k <= 0:
        raise ParameterError("k_gamma must be positive (gamma too small for alpha)")
    b = (1 - alpha) / k
    if not b < Fraction(9, 10):
        raise ParameterError(f"need (1-alpha)/k_gamma < 9/10, got {b}")
    return Part1Constants(
        alpha, gamma, k, c=Fraction(4, 5) * b, epsilon=Fraction(1),
        C1=b + Fraction(1, 20), C2=Fraction(19, 20), C=(b + 1) / 2,
    )


def _floor_comparer(target: Fraction, alpha: Fraction) -> _Comparer:
    """The _Comparer at the largest integer m with f(m) <= target
    (target > 0), with the enclosures of f(m) that deciding it made.

    An estimate only seeds the search: from it, steps that double each
    time gallop outward until f(lo) <= target < f(hi) is established, and
    the bracket is then bisected.  Every probe is decided rigorously, so
    the seed's error costs O(log |error|) comparisons.  f(1) = 0 makes
    lo = 1 a valid lower end without a probe.  The seed is the float
    inverse, within about a unit of the preimage below 2**53, so the
    search usually decides m and m + 1 and stops; past 2**53 a float no
    longer holds every integer, and where the float inverse is not finite
    or reaches 2**53 the seed is _big_seed instead.
    """
    probes: dict[int, _Comparer] = {}

    def at_most(x: int) -> bool:
        at = probes[x] = _Comparer(alpha, x)
        return at.compare(target, Fraction(1)) >= 0

    try:
        seed = inverse_f(float(target), float(alpha))
    except OverflowError:  # float(target) itself overflows
        seed = math.inf
    x = max(1, int(seed)) if seed < 2**53 else _big_seed(target, alpha)
    step = 1
    if at_most(x):
        lo, hi = x, x + 1
        while at_most(hi):
            lo, hi = hi, hi + step
            step *= 2
    else:
        lo, hi = max(1, x - 1), x
        while lo > 1 and not at_most(lo):
            lo, hi = max(1, lo - step), lo
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_most(mid):
            lo = mid
        else:
            hi = mid
    return probes.get(lo) or _Comparer(alpha, lo)


def _big_seed(target: Fraction, alpha: Fraction) -> int:
    """An integer near the preimage x of target under f, for targets too
    large for the float inverse: _ln_preimage at a working precision set
    by the target's bit length, 64 bits beyond the bits of x, so the seed
    is off by a few units at most."""
    import mpmath

    bits = target.numerator.bit_length() - target.denominator.bit_length() + 1
    with mpmath.workprec(int(bits / float(alpha)) + 64):
        t = mpmath.mpf(target.numerator) / target.denominator
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
        return int(mpmath.floor(mpmath.exp(_ln_preimage(t, a, mpmath))))


@dataclass(frozen=True)
class Part1Row:
    i: int
    m_i: int
    n_i: int
    constants: Part1Constants
    gap_certificate: bool
    gap_violators: tuple[int, ...]
    existence_certificate: bool
    existence_a: tuple[int, ...]


class _Window(NamedTuple):
    """A part-1 window (low_q f(x), high_q f(x) + add) on s(a), closed or
    open, with the floats of its three rationals."""

    low_q: Fraction
    high_q: Fraction
    add: Fraction
    closed: bool
    floats: tuple[float, float, float]


@dataclass(frozen=True)
class _Part1Setup:
    consts: Part1Constants
    alpha_f: float
    k_f: float
    existence: _Window
    gap: _Window


@functools.lru_cache(maxsize=256, typed=True)
def _part1_setup(alpha, gamma: int) -> _Part1Setup:
    """part1_constants, alpha and k as floats, and the two part-1 windows
    at x: the closed existence window [C1 k f(x), C2 k f(x)] and the open
    gap window (c k f(x), k f(x) + epsilon).  They depend on (alpha,
    gamma) alone, so they are built once per pair and kept across calls;
    their Fraction arithmetic and float conversions are about a quarter
    of a window report at n = 10^6.  alpha is keyed with its type, since
    equal values of two types (0.1 and its binary Fraction) convert to
    different constants."""
    consts = part1_constants(alpha, gamma)
    k = consts.k

    def window(low_q: Fraction, high_q: Fraction, add: Fraction, closed: bool):
        return _Window(low_q, high_q, add, closed, (float(low_q), float(high_q), float(add)))

    return _Part1Setup(
        consts, float(consts.alpha), float(k),
        existence=window(consts.C1 * k, consts.C2 * k, Fraction(0), closed=True),
        gap=window(consts.c * k, k, consts.epsilon, closed=False),
    )


def _part1_window(setup: _Part1Setup, window: _Window, at_x: _Comparer, r: int = 4
                  ) -> tuple[int, ...]:
    """Every a >= 1 whose size s(a) = w_vertex_count(a, gamma, r) lies
    inside the part-1 window at at_x's x.  Each s(a) is placed against
    the integer brackets of both endpoints, made once per precision on
    at_x's enclosure of f(x); the upper one is tested only where the
    lower one lets s inside.  s grows with a, so the walk a = 1, 2, ...
    stops at the first s(a) that the upper bracket puts beyond the
    window.  No float enters; the float inverse of f only seeds the
    floor search."""
    low, high = _Endpoint(at_x, window.low_q), _Endpoint(at_x, window.high_q, window.add)
    closed, gamma = window.closed, setup.consts.gamma
    inside = []
    a = 1
    while True:
        s = w_vertex_count(a, gamma, r)
        lo = low.sign(s)
        if lo > 0 or (closed and lo == 0):
            hi = high.sign(s)
            if hi > 0 or (not closed and hi == 0):
                return tuple(inside)
            inside.append(a)
        a += 1


def sequence_part1(i: int, alpha, gamma: int) -> Part1Row:
    """Witness pair (m_i, n_i) for the part-1 gap/existence windows.

    m_i = floor(y_i) with 3(1-alpha) f(y_i) = 4^i / 3; its certificate
    states that NO integer a has s(a) strictly inside
    (c k f(m_i), k f(m_i) + epsilon).

    n_i = floor(x_i) with f(x_i) = s(i) / (C k); its certificate states
    that SOME integer a has s(a) in [C1 k f(n_i), C2 k f(n_i)].

    The gap certificate holds at every large i only for gamma outside
    the bands 4^(j+1)/15 < gamma + 1 < 4^j k / (3(1 - alpha)), j >= 0.
    m_i does not depend on gamma, and c k = 4(1 - alpha)/5, so the gap
    window is about (4^(i+1)/45, 4^i k / (9(1 - alpha))); s(i - j) is
    about (gamma + 1) 4^(i-j) / 3, inside it exactly in band j.  At
    alpha = 0.3 the bands past gamma = 9 are [17, 41], [68, 169],
    [273, 681], ...  Inside band j a row's violator is a = i - j, except
    near a band's edges at small i.  Such rows are returned with their
    violators, not rejected.
    """
    if i < 1:
        raise ParameterError("i must be >= 1")
    if gamma <= 9:
        raise ParameterError("part 1 requires gamma > 9")
    setup = _part1_setup(alpha, gamma)
    consts = setup.consts
    al = consts.alpha

    at_m = _floor_comparer(Fraction(4**i, 9) / (1 - al), al)
    at_n = _floor_comparer(Fraction(w_vertex_count(i, gamma, 4)) / (consts.C * consts.k), al)
    violators = _part1_window(setup, setup.gap, at_m)
    inside = _part1_window(setup, setup.existence, at_n)
    return Part1Row(
        i=i,
        m_i=at_m.x,
        n_i=at_n.x,
        constants=consts,
        gap_certificate=not violators,
        gap_violators=violators,
        existence_certificate=bool(inside),
        existence_a=inside,
    )


# ---------------------------------------------------------------------------
# Part-2 sequences

@functools.lru_cache(maxsize=256, typed=True)
def _part2_setup(alpha, beta, gamma: int, r: int) -> tuple:
    """The part-2 parameters checked, as ((alpha, beta, k_gamma) as
    Fractions, the same three as floats).  An inadmissible tuple raises
    ParameterError on every call, since the cache keeps no exceptions.
    sequence_part2 and the part-2 window report both take their
    parameters from here, so the checks and the Fraction arithmetic,
    about half of a window report, run once per (alpha, beta, gamma, r).
    alpha and beta are keyed with their types, as in _part1_setup."""
    al, be = _as_fraction(alpha), _as_fraction(beta)
    if not 0 < al < 1:
        raise ParameterError("alpha must lie in (0, 1)")
    if not 0 < be < min(al, Fraction(2, 3) * (1 - al)):
        raise ParameterError("need 0 < beta < min(alpha, 2(1-alpha)/3)")
    k = _k_gamma_frac(gamma, al)
    if k <= 0:
        raise ParameterError("k_gamma must be positive")
    if (gamma + 1) * (1 - al) <= 3 * al:
        raise ParameterError("need gamma + 1 > 3 alpha / (1 - alpha)")
    if r < 2:
        raise ParameterError("r must be >= 2")
    return (al, be, k), (float(al), float(be), float(k))


@functools.lru_cache(maxsize=1024)
def _w_star_size(a: int, gamma: int, r: int) -> int:
    """V(a) = |W*(a)|, kept across part-2 window reports.  A report reads
    V(1), V(2), ... up to the first past n^beta; V grows doubly
    exponentially in a, so that is a few sizes per (gamma, r), about
    log log n of them."""
    return w_star_vertex_count(a, gamma, r)


@dataclass(frozen=True)
class Part2Certificate:
    a: int
    size_ok: bool       # V(a) <= x^beta
    growth_ok: bool     # V(a+1) > k x^alpha ln x + 1

    @property
    def holds(self) -> bool:
        return self.size_ok and self.growth_ok


@dataclass(frozen=True)
class Part2Row:
    i: int
    n_i: int
    m_i: int
    log_n_i: float
    log_m_i: float
    a1: int
    a2: int
    n_certificate: Part2Certificate
    m_certificate: Part2Certificate

    def __repr__(self) -> str:
        # n_i and m_i grow doubly exponentially in i; past a few hundred
        # digits (and past the int-to-str limit) only their size is shown.
        shown = ", ".join(
            f"{f.name}={_brief(getattr(self, f.name))}" for f in fields(self)
        )
        return f"Part2Row({shown})"


def _brief(x) -> str:
    if type(x) is int and x.bit_length() > 1000:
        return f"<int of {x.bit_length()} bits>"
    return repr(x)


def _part2_value(a: int, gamma: int, r: int, beta: Fraction, tower: int) -> int:
    """2 * floor(B^(1/beta)) with B = (gamma+1) * tower, where tower is
    omega(omega(a)) and beta = p/q.

    For r = 2^s the tower is (2^w - 1) / (r - 1) with w = s * omega(a), so
    B^q is the binomial sum (2^w - 1)^q = sum_k C(q, k) (-1)^(q-k) 2^(kw)
    of shifted terms, times (gamma+1)^q, divided exactly by (r - 1)^q: time
    linear in its bits, where ** multiplies.  Other r raise B to the q.
    """
    p, q = beta.numerator, beta.denominator
    if r & (r - 1):
        power = ((gamma + 1) * tower) ** q
    else:
        w = (r.bit_length() - 1) * omega(a, r)
        terms = sum((-1) ** (q - k) * math.comb(q, k) << k * w for k in range(q + 1))
        power = (gamma + 1) ** q * terms // (r - 1) ** q
    return 2 * _iroot(power, p)


def _power_leq(v: int, x: int, beta: Fraction) -> bool:
    """v <= x^beta on exact integers."""
    return v**beta.denominator <= x**beta.numerator


def sequence_part2(i: int, alpha, beta, gamma: int, r: int) -> Part2Row:
    """Witness pair (n_i, m_i) for the part-2 floors a1 = 2i (even, for
    n_i) and a2 = 2i + 1 (odd, for m_i), with the certificates

        V(a) <= x^beta   and   V(a+1) > k_gamma x^alpha ln x + 1.

    Each row builds the towers omega(omega(a)) for a = a1, a1 + 1, a1 + 2
    once and reads V(a) = |W*(a)| off them.  The size certificate is
    decided on interval logarithms, with the exact integer comparison
    only where the intervals do not separate; the growth certificate by
    _Comparer's rigorous window comparison.

    The parameters are checked, and turned into Fractions and k_gamma,
    once per (alpha, beta, gamma, r) by _part2_setup, which the part-2
    window report shares.

    r <= alpha / beta yields rows whose growth certificate fails at every
    i: x^beta is about V(a), so the threshold grows like
    V(a)^(alpha/beta) ln V(a), while V(a+1) grows only like V(a)^r.
    The parameter checks do not reject such r.
    """
    if i < 1:
        raise ParameterError("i must be >= 1")
    (alpha, beta, k), _ = _part2_setup(alpha, beta, gamma, r)
    a1, a2 = 2 * i, 2 * i + 1
    towers = {a: omega(omega(a, r), r) for a in (a1, a2, a2 + 1)}
    n_i = _part2_value(a1, gamma, r, beta, towers[a1])
    m_i = _part2_value(a2, gamma, r, beta, towers[a2])
    sizes = {a: w_star_vertex_count(a, gamma, r, tower=t) for a, t in towers.items()}

    def certificate(a: int, x: int) -> Part2Certificate:
        at_x = _Comparer(alpha, x)
        return Part2Certificate(
            a=a,
            size_ok=at_x.power_leq(sizes[a], beta),
            growth_ok=at_x.compare(sizes[a + 1], k, Fraction(1)) > 0,
        )

    def log_of(x: int) -> float:
        import mpmath

        with mpmath.workdps(30):
            return float(mpmath.log(mpmath.mpf(x)))

    return Part2Row(
        i=i,
        n_i=n_i,
        m_i=m_i,
        log_n_i=log_of(n_i),
        log_m_i=log_of(m_i),
        a1=a1,
        a2=a2,
        n_certificate=certificate(a1, n_i),
        m_certificate=certificate(a2, m_i),
    )


# ---------------------------------------------------------------------------
# Window reports

@dataclass(frozen=True)
class ThresholdReport:
    alpha: float
    gamma: int
    r: int
    k_gamma: float
    f_n: float
    window: str
    window_low: float
    window_high: float
    admissible_a: tuple[int, ...]


def window_report(
    n: int,
    alpha,
    gamma: int,
    r: int = 4,
    mode: str = "part1",
    window: str = "existence",
    beta=None,
) -> ThresholdReport:
    """Which floors a are admissible at size n.

    part1/existence: closed window [C1 k f(n), C2 k f(n)] on s(a).
    part1/gap: open window (c k f(n), k f(n) + epsilon) on s(a).
    part2: a admissible when V(a) <= n^beta; window_high reports the
    growth threshold k n^alpha ln n + 1.  It has one window, so
    ``window`` is only checked to be a part-1 window name.  Each part's
    set-up is built once per parameter tuple and kept across calls:
    _part1_setup per (alpha, gamma), _part2_setup, shared with
    sequence_part2, per (alpha, beta, gamma, r), and the sizes V(a) per
    (a, gamma, r).
    """
    if window not in ("existence", "gap"):
        raise ValueError(f"unknown window {window!r}")
    if mode == "part1":
        setup = _part1_setup(alpha, gamma)
        win = setup.existence if window == "existence" else setup.gap
        low_f, high_f, add_f = win.floats
        fn = f(n, setup.alpha_f)
        return ThresholdReport(
            alpha=setup.alpha_f, gamma=gamma, r=r, k_gamma=setup.k_f, f_n=fn,
            window=window,
            window_low=low_f * fn,
            window_high=high_f * fn + add_f,
            admissible_a=_part1_window(setup, win, _Comparer(setup.consts.alpha, n), r),
        )
    if mode != "part2":
        raise ValueError(f"unknown mode {mode!r}")
    if beta is None:
        raise ParameterError("part2 window report requires beta")
    (_, be, _), (alpha_f, beta_f, k_f) = _part2_setup(alpha, beta, gamma, r)
    a = 1
    while _power_leq(_w_star_size(a, gamma, r), n, be):
        # V grows doubly exponentially; past the first a that does not
        # fit, no larger one can.
        a += 1
    fn = f(n, alpha_f)
    try:
        low = math.exp(beta_f * math.log(n))
    except OverflowError:
        low = math.inf
    return ThresholdReport(
        alpha=alpha_f, gamma=gamma, r=r, k_gamma=k_f, f_n=fn,
        window="part2",
        window_low=low,
        window_high=k_f * fn + 1.0 if math.isfinite(fn) else math.inf,
        admissible_a=tuple(range(1, a)),
    )
