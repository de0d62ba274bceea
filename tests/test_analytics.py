"""Log-space analytics and the exact non-convergence certificates."""

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sparsewitness
from sparsewitness import analytics
from sparsewitness.analytics import (
    LogReal,
    ParameterError,
    _Comparer,
    domination_probability,
    expected_W,
    expected_W_dominating,
    expected_W_star,
    f,
    inverse_f,
    k_gamma,
    part1_constants,
    sequence_part1,
    sequence_part2,
    window_report,
)
from sparsewitness.witness import (
    omega,
    w_star_edge_count,
    w_star_vertex_count,
    w_vertex_count,
)

# ------------------------------------------------------------- LogReal

def test_logreal_zero_and_overflow():
    assert LogReal.zero().to_float() == 0.0
    assert LogReal.from_log(float("-inf")) == LogReal.zero()
    assert LogReal.from_log(1e6).to_float() == math.inf  # e^(10^6)


# --------------------------------------------------- f, inverse, k_gamma

def test_k_gamma_values():
    # k = 2(1 - (gamma+2) alpha / (gamma+1)).
    assert k_gamma(0, 0.3) == pytest.approx(2 * (1 - 2 * 0.3))
    assert k_gamma(10, 0.3) == pytest.approx(2 * (1 - 12 * 0.3 / 11))
    # The float is the rounded exact value the certificates use.
    assert k_gamma(13, 0.3) == float(part1_constants(0.3, 13).k)
    # Admissibility breaks when k <= 0.
    with pytest.raises(ParameterError):
        part1_constants(0.9, 0)


def test_f_and_inverse_roundtrip():
    for alpha in (0.25, 0.3, 0.6):
        for x in (2.0, 10.0, 1234.5):
            val = f(x, alpha)
            assert val == pytest.approx(x**alpha * math.log(x))
            assert inverse_f(val, alpha) == pytest.approx(x, rel=1e-9)
    assert f(1.0, 0.3) == 0.0


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 0.99])
def test_inverse_f_is_close_to_the_root_and_monotone(alpha):
    # The root of x^alpha ln x = t is exp(W(alpha t) / alpha), W Lambert's
    # function, taken at 40 digits with the float alpha the call sees.  A
    # root past the float range is inf.
    targets = [10 ** (k / 8) for k in range(-48, 2401)]  # 1e-6 .. 1e300
    got = [inverse_f(t, alpha) for t in targets]
    assert got == sorted(got)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for t, x in zip(targets, got):
            root = mpmath.exp(mpmath.lambertw(a * mpmath.mpf(t)).real / a)
            if root > mpmath.mpf(2) ** 1024:
                assert x == math.inf, t
            else:
                assert abs(x - root) <= 1e-12 * root, (t, x, root)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_inverse_f_rejects_non_finite_targets(target):
    with pytest.raises(ValueError):
        inverse_f(target, 0.3)


@pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan])
def test_inverse_f_rejects_alpha_that_is_not_finite_and_positive(alpha):
    # f is increasing on [1, inf) only for alpha > 0: alpha = 0 divided by
    # zero, -0.5 gave about -8.1e38 and nan gave nan.
    with pytest.raises(ValueError, match="alpha"):
        inverse_f(10.0, alpha)


def test_compare_to_window_endpoint_exact_cases():
    # s vs q * x^alpha ln x + add, decided with outward interval arithmetic.
    # At x = e^... pick a rational-friendly case: alpha such that the
    # comparison is forced either way.
    al = Fraction(3, 10)
    assert _Comparer(al, 2).compare(100, Fraction(1)) > 0
    assert _Comparer(al, 100).compare(1, Fraction(10)) < 0
    # q = 0 makes the endpoint just `add`: exact rational branch.
    assert _Comparer(al, 100).compare(5, Fraction(0), Fraction(5)) == 0


def _mp_fraction(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@settings(max_examples=150, deadline=None)
@given(
    x=st.integers(min_value=2, max_value=10**15),
    alpha=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                       max_denominator=100),
    q=st.fractions(min_value=-50, max_value=50, max_denominator=1000).filter(bool),
    add=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000),
    den=st.integers(min_value=1, max_value=10**6),
    offset=st.integers(min_value=-3, max_value=3),
)
def test_compare_to_window_endpoint_matches_mpmath(x, alpha, q, add, den, offset):
    # s is drawn within a few 1/den of the endpoint q f(x) + add, on either
    # side, so the comparison is close but not a tie (f(x) is
    # transcendental for x >= 2); 60 digits decide it independently.
    with mpmath.workdps(60):
        fx = mpmath.power(x, _mp_fraction(alpha)) * mpmath.log(x)
        endpoint = _mp_fraction(q) * fx + _mp_fraction(add)
        s = Fraction(int(mpmath.floor(endpoint * den)) + offset, den)
        diff = _mp_fraction(s) - endpoint
        assume(abs(diff) > mpmath.mpf(10) ** -40 * (1 + abs(endpoint)))
        want = 1 if diff > 0 else -1
    assert _Comparer(alpha, x).compare(s, q, add) == want


@settings(max_examples=80, deadline=None)
@given(
    x=st.integers(min_value=2, max_value=10**12),
    alpha=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                       max_denominator=100),
    bits=st.integers(min_value=300, max_value=1000),
    negative=st.booleans(),
    den=st.sampled_from([1, 1, 7, 2**61 - 1]),
    add=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000),
    offset=st.integers(min_value=-3, max_value=3),
)
def test_compare_to_window_endpoint_past_the_first_precision(
    x, alpha, bits, negative, den, add, offset
):
    # q = +-(2^bits + 1) / 3 gives an endpoint q f(x) + add of more than
    # 300 bits, negative when q is.  s = (floor(endpoint * den) + offset)
    # / den is an integer for den = 1 and a rational otherwise, within a
    # few units of the endpoint: 80 bits round both s and the endpoint
    # far coarser than that, so the sign comes from a higher precision.
    # mpmath at 250 bits past the endpoint's size decides it independently.
    q = Fraction(-(2**bits + 1) if negative else 2**bits + 1, 3)
    with mpmath.workprec(bits + 250):
        fx = mpmath.power(x, _mp_fraction(alpha)) * mpmath.log(x)
        endpoint = _mp_fraction(q) * fx + _mp_fraction(add)
        s = Fraction(int(mpmath.floor(endpoint * den)) + offset, den)
        diff = _mp_fraction(s) - endpoint
        assume(abs(diff) > mpmath.mpf(2) ** -100)
        want = 1 if diff > 0 else -1
    if den == 1:
        s = s.numerator
    assert _Comparer(alpha, x).compare(s, q, add) == want


@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=10**15),
    alpha=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                       max_denominator=100),
    q=st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-50, max_value=50, max_denominator=1000),
        # q f(x) past 2^80 puts s beyond what 80 bits hold exactly.
        st.fractions(min_value=-(2**100), max_value=2**100, max_denominator=7),
    ),
    add=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000),
    offset=st.integers(min_value=-2, max_value=2),
)
@example(x=1, alpha=Fraction(3, 10), q=Fraction(5), add=Fraction(7), offset=0)
@example(x=10**6, alpha=Fraction(3, 10), q=Fraction(0), add=Fraction(-9, 2), offset=1)
@example(x=10**15, alpha=Fraction(99, 100), q=Fraction(2**100), add=Fraction(0), offset=-2)
def test_endpoint_sign_on_integers_matches_mpmath(x, alpha, q, add, offset):
    # An integer s within 2 of the endpoint q f(x) + add, placed through
    # the endpoint's integer brackets ceil(lo) and floor(hi).  x = 1 or
    # q = 0 leave the rational add, compared exactly (ties included);
    # otherwise the endpoint is irrational and mpmath at 400 bits plus the
    # bits of q decides the sign independently.
    comparer = _Comparer(alpha, x)
    if x == 1 or q == 0:
        s = math.floor(add) + offset
        want = (s > add) - (s < add)
    else:
        with mpmath.workprec(400 + abs(q).numerator.bit_length()):
            fx = mpmath.power(x, _mp_fraction(alpha)) * mpmath.log(x)
            endpoint = _mp_fraction(q) * fx + _mp_fraction(add)
            s = int(mpmath.floor(endpoint)) + offset
            diff = s - endpoint
            assume(abs(diff) > mpmath.mpf(2) ** -200)
            want = 1 if diff > 0 else -1
    assert analytics._Endpoint(comparer, q, add).sign(s) == want
    assert comparer.compare(s, q, add) == want


@settings(max_examples=300, deadline=None)
@given(
    x=st.integers(min_value=2, max_value=10**15),
    alpha=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                       max_denominator=100),
    q=st.one_of(
        st.fractions(min_value=-50, max_value=50, max_denominator=1000),
        st.fractions(min_value=-(2**60), max_value=2**60, max_denominator=7),
    ).filter(bool),
    add=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000),
    side=st.sampled_from([-1, 0, 1, None]),
    k=st.integers(min_value=10, max_value=60),
    offset=st.integers(min_value=-2, max_value=2),
)
@example(x=10**15, alpha=Fraction(99, 100), q=Fraction(2**60), add=Fraction(0),
         side=1, k=31, offset=0)
@example(x=10**6, alpha=Fraction(3, 10), q=Fraction(1000, 7), add=Fraction(-21317, 1),
         side=0, k=10, offset=1)
@example(x=2, alpha=Fraction(1, 2), q=Fraction(1, 1000), add=Fraction(10**6),
         side=None, k=40, offset=0)
def test_float_rung_agrees_with_mpmath_and_decides_far_comparisons(
    x, alpha, q, add, side, k, offset
):
    # s = floor(E (1 + side 2^-k)) + offset for the endpoint E = q f(x) +
    # add: within a few units of E for side = 0, else about 2^-k of E
    # away, across the rung's error bound (under 2^-34 of |q f| + |add|
    # here).  side = None moves add instead, to a multiple of 2^-k that
    # puts E within 2^-k of an integer N, and s = N + offset.  Every sign
    # matches mpmath at 400 bits plus the bits of q, and s farther than
    # 2^-30 of |q f(x)| + |add| from E is placed by the doubles alone,
    # with no interval enclosure.  The bound is taken on |q f| and |add|,
    # not on |E|, since add may cancel q f.
    with mpmath.workprec(400 + abs(q).numerator.bit_length()):
        qf = _mp_fraction(q) * mpmath.power(x, _mp_fraction(alpha)) * mpmath.log(x)
        if side is None:
            n = int(mpmath.nint(qf + _mp_fraction(add)))
            add = Fraction(int(mpmath.nint((n - qf) * 2**k)), 2**k)
            s = n + offset
        endpoint = qf + _mp_fraction(add)
        if side is not None:
            s = int(mpmath.floor(endpoint * (1 + side * mpmath.mpf(2) ** -k))) + offset
        diff = s - endpoint
        assume(abs(diff) > mpmath.mpf(2) ** -200)
        want = 1 if diff > 0 else -1
        far = abs(diff) > mpmath.mpf(2) ** -30 * (abs(qf) + abs(_mp_fraction(add)))
    comparer = _Comparer(alpha, x)
    assert analytics._Endpoint(comparer, q, add).sign(s) == want
    if far:
        assert not comparer._ln


@pytest.mark.parametrize("beta", [Fraction(1, 4), Fraction(2, 9), Fraction(3, 13)])
def test_power_leq_near_perfect_powers_matches_the_exact_comparison(monkeypatch, beta):
    # x = t^q + dx and v = t^p + dv, or v moved by about 2^-j of itself,
    # with x of 10^4 or more bits, so v^q against x^p is a tie or differs
    # by one part in 2^j or in 2^(10^4).  Every verdict matches the exact
    # integer comparison; at j = 8 the doubles decide it alone.
    enclosed = []
    real_ln = analytics._enclose_ln
    monkeypatch.setattr(analytics, "_enclose_ln",
                        lambda x, prec: enclosed.append(x) or real_ln(x, prec))
    p, q = beta.numerator, beta.denominator
    rnd = random.Random(q)
    for bits in (10_000, 12_345):
        t = rnd.getrandbits(bits // q) | 1 << (bits // q)
        for dx in (-1, 0, 1):
            x = t**q + dx
            at = _Comparer(Fraction(3, 5), x)
            vs = [t**p + dv for dv in (-1, 0, 1)]
            vs += [t**p + sign * (t**p >> j) for j in (8, 30, 45, 60, 200) for sign in (-1, 1)]
            for v in vs:
                enclosed.clear()
                assert at.power_leq(v, beta) == analytics._power_leq(v, x, beta), (bits, dx, v)
                if abs(v - t**p) == t**p >> 8:
                    assert not enclosed


def test_window_comparison_escalates_where_80_bits_cannot_separate(monkeypatch):
    # floor(E) and floor(E) + 1 for an endpoint E of about 400 bits lie in
    # one 80-bit enclosure of E; only a precision past E's size separates
    # them.  The reference signs come from mpmath at 700 bits.
    precisions = []
    real_ln = analytics._enclose_ln
    monkeypatch.setattr(analytics, "_enclose_ln",
                        lambda x, prec: precisions.append(prec) or real_ln(x, prec))
    alpha, x, q = Fraction(3, 10), 10**6, Fraction(-(2**400 + 1), 3)
    with mpmath.workprec(700):
        endpoint = _mp_fraction(q) * mpmath.power(x, _mp_fraction(alpha)) * mpmath.log(x)
        s = int(mpmath.floor(endpoint))
        assert s < endpoint < s + 1
    assert _Comparer(alpha, x).compare(s, q) == -1
    assert _Comparer(alpha, x).compare(s + 1, q) == 1
    assert min(precisions) == 80 and max(precisions) > 400


# ------------------------------------------------- expectation formulas

def test_expected_W_hand_computed():
    # a=1, gamma=0: the witness is one edge; E[ordered embeddings] =
    # n(n-1) p.
    n, p = 10, 0.5
    assert expected_W(n, p, 1, 0).to_float() == pytest.approx(n * (n - 1) * p)
    # a=1, gamma=1: P_3; E = n(n-1)(n-2) p^2 (1-p).
    assert expected_W(n, p, 1, 1).to_float() == pytest.approx(
        n * (n - 1) * (n - 2) * p**2 * (1 - p)
    )


def test_expected_W_dominating_hand_computed():
    # Edge {u, v} dominates iff every other vertex sees u or v:
    # factor (1 - (1-p)^2)^(n-2) on top of the plain edge expectation.
    n, p = 8, 0.4
    base = n * (n - 1) * p
    dom = (1 - (1 - p) ** 2) ** (n - 2)
    assert expected_W_dominating(n, p, 1, 0).to_float() == pytest.approx(base * dom)


def test_expected_W_star_small():
    # a=1: the starred witness is a path on 3 gamma + 4 vertices; its
    # expectation must match the generic induced-path formula.
    n, p, gamma = 30, 0.2, 0
    s = 3 * gamma + 4  # P_4
    e = s - 1
    falling = math.prod(range(n - s + 1, n + 1))
    expect = falling * p**e * (1 - p) ** (s * (s - 1) // 2 - e)
    assert expected_W_star(n, p, 1, gamma, 2).to_float() == pytest.approx(expect)


@pytest.mark.parametrize("n", [10**13, 10**15, 10**18, 10**21, 10**30])
def test_expected_W_star_past_float_lgamma_matches_mpmath(n):
    # Past n = 10^12 the float lgamma terms, of size n ln n, would cancel
    # the digits of ln n!/(n - s)!; the reference takes the same formula
    # at 60 digits.
    p, a, gamma, r = n ** -0.6, 2, 2, 2
    s, e = w_star_vertex_count(a, gamma, r), w_star_edge_count(a, gamma, r)
    t = omega(omega(a, r), r)
    with mpmath.workdps(60):
        ref = (mpmath.loggamma(n + 1) - mpmath.loggamma(n - s + 1)
               - (t - 1) // r * mpmath.loggamma(r + 1)
               + e * mpmath.log(p) + (s * (s - 1) // 2 - e) * mpmath.log1p(-p))
    got = expected_W_star(n, p, a, gamma, r).log
    assert abs(got - ref) <= 1e-15 * abs(ref), (got, ref)


def test_first_moments_reject_a_zero():
    # W(0) and W*(0) are no witnesses: omega(0, r) = 0 leaves the divisor
    # exponent (omega - 1) / r fractional.
    with pytest.raises(ParameterError):
        expected_W(10, 0.5, 0, 0)
    with pytest.raises(ParameterError):
        expected_W_star(10, 0.5, 0, 0, 2)


FIRST_MOMENTS = {
    "expected_W": lambda p, gamma: expected_W(10, p, 1, gamma),
    "expected_W_dominating": lambda p, gamma: expected_W_dominating(10, p, 1, gamma),
    "expected_W_star": lambda p, gamma: expected_W_star(10, p, 1, gamma, 2),
}


@pytest.mark.parametrize("name", FIRST_MOMENTS)
@pytest.mark.parametrize("p, gamma", [(0.5, -1), (1.5, 0), (-0.5, 0), (math.nan, 0)])
def test_first_moments_reject_bad_gamma_and_p(name, p, gamma):
    # W(a, gamma, r) is undefined for gamma < 0, yet expected_W(10, 0.5,
    # 1, -1) gave e^2.30; p = 1.5 gave e^4.91 or a bare "math domain
    # error", and p = nan a nan log.
    match = "gamma must be nonnegative" if gamma < 0 else r"p must lie in \[0, 1\]"
    with pytest.raises(ParameterError, match=match):
        FIRST_MOMENTS[name](p, gamma)


@pytest.mark.parametrize("p", [1.5, -0.5, math.nan])
def test_domination_probability_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(ParameterError, match=r"p must lie in \[0, 1\]"):
        domination_probability(10, p, 3)


def test_domination_probability_formula():
    assert domination_probability(50, 0.2, 5) == pytest.approx(
        (1 - 0.8**5) ** 45
    )
    assert domination_probability(10, 1.0, 1) == 1.0
    assert domination_probability(10, 0.0, 3) == 0.0


# ------------------------------------------------------- certificates

def test_part1_known_failure_at_i3_with_gamma10():
    # At gamma=10 the first gap window is NOT empty: a=1 has
    # s(1) = 12 inside (c k f(m_3), k f(m_3) + 1).  The defect is an
    # intrinsic small-i artifact; it is cleared once
    # s(1) = gamma + 2 > k_gamma f(m_3) + epsilon, which first holds at
    # gamma = 13 (15 > 14.78; gamma = 12 gives 14 < 14.75).
    row = sequence_part1(3, 0.3, 10)
    assert not row.gap_certificate
    assert row.gap_violators == (1,)
    assert row.existence_certificate


def test_part1_certificates_hold_for_gamma13():
    for i in range(3, 7):
        row = sequence_part1(i, 0.3, 13)
        assert row.gap_certificate, (i, row.gap_violators)
        assert row.existence_certificate, i
        assert row.existence_a  # at least one admissible floor


def test_part1_rejects_small_gamma():
    with pytest.raises(ParameterError):
        sequence_part1(3, 0.3, 9)


# (k, C1, C2, C, c, epsilon) of part1_constants(0.3, gamma): with
# b = (1 - alpha) / k, C1 = b + 1/20, C2 = 19/20, C = (b + 1)/2, c = 4b/5
# and epsilon = 1.  b = 77/148 at gamma = 10 and 49/95 at gamma = 13.
PART1_CONSTANTS = {
    10: (Fraction(74, 55), Fraction(211, 370), Fraction(19, 20), Fraction(225, 296),
         Fraction(77, 185), Fraction(1)),
    13: (Fraction(19, 14), Fraction(43, 76), Fraction(19, 20), Fraction(72, 95),
         Fraction(196, 475), Fraction(1)),
}


@pytest.mark.parametrize("gamma", sorted(PART1_CONSTANTS))
def test_part1_constants_are_fixed(gamma):
    consts = part1_constants(0.3, gamma)
    got = (consts.k, consts.C1, consts.C2, consts.C, consts.c, consts.epsilon)
    assert got == PART1_CONSTANTS[gamma]
    assert all(type(x) is Fraction for x in got)


def test_part1_constants_need_b_below_nine_tenths():
    # At gamma = 0, k = 2 (1 - 2 alpha): b = 7/8 at alpha = 0.3 is
    # admissible, b = 69/76 (about 0.908) at 0.31 and 17/18 at 0.32 are not.
    assert part1_constants(0.3, 0).C == Fraction(15, 16)
    for alpha in (0.31, 0.32):
        with pytest.raises(ParameterError, match="9/10"):
            part1_constants(alpha, 0)


def test_part1_windows_are_nested_sanely():
    row = sequence_part1(4, 0.3, 13)
    consts = row.constants
    assert 0 < consts.c < consts.C1 < consts.C < consts.C2 < 1
    assert row.m_i >= 1 and row.n_i >= 1
    # m_i is genuinely the floor: f(m_i) <= target < f(m_i + 1).
    target = float(Fraction(4**4, 9) / (1 - Fraction(3, 10)))
    assert f(row.m_i, 0.3) <= target <= f(row.m_i + 1, 0.3)


# (m_i, n_i) of sequence_part1(i, 0.3, 10), recorded with the earlier floor
# search that walked one integer at a time from the float estimate.
PART1_FLOORS_GAMMA10 = {
    3: (34, 30545),
    4: (514, 1149701),
    5: (13022, 52187408),
    6: (457052, 2713322071),
    7: (19894030, 155842343277),
    8: (1004514058, 9649955247676),
    9: (56453367413, 633505690660872),
    10: (3437582108465, 43572506750558057),
}


def _f_mp(x: int):
    return mpmath.power(x, mpmath.mpf(3) / 10) * mpmath.log(x)


def test_part1_floors_bracket_their_targets():
    # m_i is the floor of f^-1(4^i / (9 (1 - alpha))) = f^-1(10 * 4^i / 63);
    # n_i the floor of f^-1(s(i) / (C k)).  At alpha = 3/10, gamma = 10:
    # k = 2 (1 - 36/110) = 74/55, and C = ((1 - alpha)/k + 1) / 2 = 225/296
    # (the default C1 and C2 sum to (1 - alpha)/k + 1), so C k = 45/44;
    # s(i) = i + 11 (4^i - 1) / 3.  Checked at 60 digits, independently of
    # the interval comparisons the search uses.
    with mpmath.workdps(60):
        for i in range(3, 13):
            row = sequence_part1(i, 0.3, 10)
            s = i + 11 * (4**i - 1) // 3
            for x, target in (
                (row.m_i, mpmath.mpf(10 * 4**i) / 63),
                (row.n_i, mpmath.mpf(44 * s) / 45),
            ):
                assert _f_mp(x) <= target < _f_mp(x + 1), (i, x)


@pytest.mark.parametrize("estimate", ["real", "low", "high", "one"])
def test_part1_floors_pinned_gamma10(monkeypatch, estimate):
    # The float inverse only seeds the search: with the real estimate, one
    # far too low or far too high, or 1, the search gallops up or down to
    # the same floors, and the clamp to m = 1 holds where f(2) > target
    # (i = 1: 10 * 4 / 63 < f(2) ~ 0.85).
    real = analytics.inverse_f
    scale = {"real": 1.0, "low": 1e-6, "high": 1e6}.get(estimate)
    calls = []

    def fake(target, alpha):
        calls.append(target)
        return 1.0 if scale is None else real(target, alpha) * scale

    monkeypatch.setattr(analytics, "inverse_f", fake)
    for i, want in PART1_FLOORS_GAMMA10.items():
        row = sequence_part1(i, 0.3, 10)
        assert (row.m_i, row.n_i) == want, i
    assert sequence_part1(1, 0.3, 10).m_i == 1
    assert len(calls) == 2 * (len(PART1_FLOORS_GAMMA10) + 1)


def test_part1_rows_decide_each_floor_with_two_comparisons(monkeypatch):
    # The seed lands on the floor m or on m + 1, so the floor search
    # decides f(m) <= target < f(m + 1) and stops: two comparisons per
    # floor, four per row.  Below 2**53 (m_i up to i = 11, n_i up to
    # i = 9) the seeds are floats, past it _big_seed's.
    counts = []
    compare = _Comparer.compare

    def counting(self, *args):
        counts[-1] += 1
        return compare(self, *args)

    monkeypatch.setattr(_Comparer, "compare", counting)
    for i in range(1, 16):
        counts.append(0)
        sequence_part1(i, 0.3, 10)
    assert max(counts) <= 4, counts


def test_part1_windows_never_consult_the_float_f(monkeypatch):
    # The windows are placed by the float rung, on doubles of f(x) with a
    # proven error bound, and past it on integer brackets; the float
    # inverse seeds the floor search.  The public float f, which carries no
    # error bound, is read by none of them.
    want = [sequence_part1(i, 0.3, 10) for i in range(3, 11)]

    def no_float_f(x, alpha):
        raise AssertionError("the float f was consulted")

    monkeypatch.setattr(analytics, "f", no_float_f)
    assert [sequence_part1(i, 0.3, 10) for i in range(3, 11)] == want


@pytest.mark.parametrize("target", [
    # sequence_part1(170, 0.3, 13)'s m_i target: finite as a float, but its
    # preimage (about 2**1093) is not.
    pytest.param(Fraction(4**170, 9) / Fraction(7, 10), id="preimage-beyond-floats"),
    # float(target) itself overflows.
    pytest.param(Fraction(10**400, 7), id="target-beyond-floats"),
])
def test_floor_of_f_preimage_beyond_float_range(target):
    # The float inverse has no finite seed here; the floor must still be
    # exact, checked at a precision above the preimage's bit length,
    # independently of the interval comparisons the search uses.
    m = analytics._floor_comparer(target, Fraction(3, 10)).x
    assert m.bit_length() > 1024
    with mpmath.workprec(2 * m.bit_length()):
        t = mpmath.mpf(target.numerator) / target.denominator
        assert _f_mp(m) <= t < _f_mp(m + 1)


@pytest.mark.parametrize("i", [20, 60, 150])
def test_part1_floors_past_float_integers_meet_their_definition(i):
    # Both preimages lie past 2**53, where the floor search seeds from
    # _big_seed.  Each floor must be the largest m with f(m) <= target.
    alpha = Fraction(3, 10)
    consts = part1_constants(alpha, 13)
    row = sequence_part1(i, alpha, 13)
    for m, target in (
        (row.m_i, Fraction(4**i, 9) / (1 - alpha)),
        (row.n_i, Fraction(w_vertex_count(i, 13, 4)) / (consts.C * consts.k)),
    ):
        assert m > 2**53
        assert _Comparer(alpha, m).compare(target, Fraction(1)) >= 0
        assert _Comparer(alpha, m + 1).compare(target, Fraction(1)) < 0


def test_part1_certificates_hold_for_gamma13_large_i():
    for i in range(9, 13):
        row = sequence_part1(i, 0.3, 13)
        assert row.gap_certificate, (i, row.gap_violators)
        assert row.existence_certificate, i
        assert row.existence_a == (i,)


@pytest.mark.parametrize("i", [520, 700])
def test_part1_rows_past_the_float_range(i):
    # f(m_i) and f(n_i) are past the float range, so nothing but the
    # integer brackets bounds the candidate walk.  The row certifies, and
    # each floor is the largest m with f(m) <= target.
    alpha = Fraction(3, 10)
    consts = part1_constants(alpha, 13)
    row = sequence_part1(i, alpha, 13)
    assert row.gap_certificate and row.gap_violators == ()
    assert row.existence_a == (i,)
    for m, target in (
        (row.m_i, Fraction(4**i, 9) / (1 - alpha)),
        (row.n_i, Fraction(w_vertex_count(i, 13, 4)) / (consts.C * consts.k)),
    ):
        assert math.isinf(f(m, 0.3))
        assert _Comparer(alpha, m).compare(target, Fraction(1)) >= 0
        assert _Comparer(alpha, m + 1).compare(target, Fraction(1)) < 0


@pytest.mark.parametrize("window", ["existence", "gap"])
def test_window_report_part1_past_the_float_range(window):
    # At n = 10^1100, f(n) is about 10^333.  s(a) = a + 14 (4^a - 1)/3
    # differs from 14 * 4^a / 3 by less than a, so s(a) lies in the window
    # only if an integer a lies between log_4 of 3/14 times its ends, up to
    # a relative 10^-300.  mpmath at 3,000 bits finds none, with both ends
    # far from an integer, and checks that the two sizes around the window
    # lie outside it.
    n, gamma, alpha = 10**1100, 13, Fraction(3, 10)
    consts = part1_constants(alpha, gamma)
    k = consts.k
    if window == "existence":
        low_q, high_q, add = consts.C1 * k, consts.C2 * k, Fraction(0)
    else:
        low_q, high_q, add = consts.c * k, k, consts.epsilon
    with mpmath.workprec(3000):
        fn = mpmath.mpf(n) ** _mp_fraction(alpha) * mpmath.log(n)
        lo = _mp_fraction(low_q) * fn
        hi = _mp_fraction(high_q) * fn + _mp_fraction(add)
        ends = [mpmath.log(3 * end / (gamma + 1), 4) for end in (lo, hi)]
        a = int(mpmath.floor(ends[0]))
        assert a == int(mpmath.floor(ends[1])) and a > 500
        assert all(min(t - a, a + 1 - t) > 0.01 for t in ends)
        assert w_vertex_count(a, gamma, 4) < lo
        assert w_vertex_count(a + 1, gamma, 4) > hi
    assert window_report(n, 0.3, gamma, window=window).admissible_a == ()


def part1_bands(gamma, alpha):
    """The j >= 0 whose part-1 gamma band holds gamma:
    4^(j+1)/15 < gamma + 1 < 4^j k_gamma / (3(1 - alpha)).

    f(m_i) is about 4^i / (9(1 - alpha)), whatever gamma is, and
    c k = 4(1 - alpha)/5, so the gap window (c k f(m_i), k f(m_i) + 1) is
    about (4^(i+1)/45, 4^i k / (9(1 - alpha))).  s(i - j) is about
    (gamma + 1) 4^(i-j) / 3, which lies inside it exactly when gamma is
    in band j."""
    k = 2 * (1 - alpha * Fraction(gamma + 2, gamma + 1))
    bands = []
    j = 0
    while Fraction(4 ** (j + 1), 15) < gamma + 1:
        if gamma + 1 < 4 ** j * k / (3 * (1 - alpha)):
            bands.append(j)
        j += 1
    return bands


def test_part1_bands_at_three_tenths():
    # Past gamma = 9 the bands are [17, 41] (j = 3) and [68, 169] (j = 4);
    # gamma = 13 and 16 lie between them.
    assert [g for g in range(10, 181) if part1_bands(g, Fraction(3, 10))] == [
        *range(17, 42), *range(68, 170)]


@pytest.mark.parametrize("alpha", [Fraction(3, 10), Fraction(7, 10)])
def test_part1_gap_certificate_fails_exactly_inside_the_gamma_bands(alpha):
    for gamma in range(10, 181):
        bands = part1_bands(gamma, alpha)
        for i in (10, 12):
            row = sequence_part1(i, alpha, gamma)
            assert row.gap_violators == tuple(i - j for j in bands), (gamma, i)
            assert row.existence_certificate, (gamma, i)


def test_part2_fails_for_r2_but_holds_for_r4():
    # r=2 cannot satisfy the growth certificate (needs r > alpha/beta);
    # this is checked honestly rather than patched over.
    row = sequence_part2(1, 0.6, 0.25, 4, 2)
    assert not (row.n_certificate.holds and row.m_certificate.holds)
    for i in range(1, 5):
        row = sequence_part2(i, 0.6, 0.25, 4, 4)
        assert row.n_certificate.holds, (i, row.n_certificate)
        assert row.m_certificate.holds, (i, row.m_certificate)
        assert row.n_certificate.a == 2 * i
        assert row.m_certificate.a == 2 * i + 1
        assert row.log_n_i < row.log_m_i


def _part2_exact(i, alpha, beta, gamma, r, epsilon=1):
    """(x, size_ok, growth_ok) for a = 2i and 2i + 1 as the definitions
    read: omega from (r^a - 1)/(r - 1), x = 2 floor(B^(1/beta)) through **
    and _iroot, V(a)^q <= x^p on exact integers, and the growth window
    through _Comparer."""
    alpha, beta = Fraction(str(alpha)), Fraction(beta)
    p, q = beta.numerator, beta.denominator
    k = 2 * (1 - alpha * (gamma + 2) / (gamma + 1))

    def om(a):
        return (r**a - 1) // (r - 1)

    def size(a):
        return a + 2 * (gamma + 1) * om(a) + (gamma + 1) * om(om(a))

    out = []
    for a in (2 * i, 2 * i + 1):
        x = 2 * analytics._iroot(((gamma + 1) * om(om(a))) ** q, p)
        out.append((x, size(a) ** q <= x**p,
                    _Comparer(alpha, x).compare(size(a + 1), k, epsilon) > 0))
    return out


@pytest.mark.parametrize("beta, r, i_max", [
    (Fraction(1, 4), 2, 9),
    (Fraction(1, 4), 4, 4),
    # p = 2 > 1 sends the floors through _iroot.
    (Fraction(2, 9), 2, 6),
    (Fraction(2, 9), 4, 3),
    # r = 3 is no power of two: B^q is raised directly.
    (Fraction(1, 4), 3, 5),
    (Fraction(2, 9), 3, 3),
])
def test_part2_rows_match_the_exact_definitions(beta, r, i_max):
    for i in range(1, i_max + 1):
        row = sequence_part2(i, 0.6, beta, 4, r)
        got = [(row.n_i, row.n_certificate.size_ok, row.n_certificate.growth_ok),
               (row.m_i, row.m_certificate.size_ok, row.m_certificate.growth_ok)]
        assert got == _part2_exact(i, 0.6, beta, 4, r), (i, r, beta)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_iroot_is_the_floor_root(p):
    rnd = random.Random(p)
    xs = [0, 1] + [rnd.getrandbits(10_000) for _ in range(3)]
    # The last two k put k^p past 10^5 bits, where the root is built from
    # the root of the top bits.
    for k in [*range(1, 20), 2**200 + 3, rnd.getrandbits(40_000) | 1, 2**35_000 - 1]:
        xs += [k**p - 1, k**p, k**p + 1]
    for x in xs:
        root = analytics._iroot(x, p)
        assert root**p <= x < (root + 1) ** p, (x.bit_length(), p)


def test_part2_size_check_falls_back_to_exact_on_ties(monkeypatch):
    # 1024^4 = 2^40 exactly: no enclosure of the two logarithms separates
    # them, so only the exact comparison can say "<="; near misses are
    # decided on the enclosures alone.
    exact = []
    power_leq = analytics._power_leq
    monkeypatch.setattr(analytics, "_power_leq",
                        lambda *args: exact.append(args) or power_leq(*args))

    def leq(v, x, beta):
        return analytics._Comparer(Fraction(3, 5), x).power_leq(v, beta)

    assert not leq(2**10 + 1, 2**40, Fraction(1, 4))
    assert not leq(2**10, 2**40 - 1, Fraction(1, 4))
    assert not exact
    assert leq(2**10, 2**40, Fraction(1, 4))
    assert leq(3**20, 3**90, Fraction(2, 9))
    assert len(exact) == 2


def test_part2_row_at_r4_i6_holds_both_certificates():
    # m_i has about 1.8 * 10^8 bits here; before the rows were built from
    # shifts this row did not finish in minutes.
    row = sequence_part2(6, 0.6, 0.25, 4, 4)
    assert row.n_certificate.holds and row.m_certificate.holds
    assert (row.a1, row.a2) == (12, 13)


def test_part2_row_repr_shows_bit_lengths_of_huge_integers():
    # At r = 4, i = 3, m_i has 43,692 bits (about 13,000 digits), past the
    # 4,300-digit limit on int-to-str conversion, and n_i 10,924; small
    # fields print as they are.
    row = sequence_part2(3, 0.6, 0.25, 4, 4)
    text = repr(row)
    assert f"n_i=<int of {row.n_i.bit_length()} bits>" in text
    assert f"m_i=<int of {row.m_i.bit_length()} bits>" in text
    assert text.startswith("Part2Row(i=3, ") and "a1=6, a2=7" in text
    assert repr(row.n_certificate) in text
    small = sequence_part2(1, 0.6, 0.25, 4, 2)
    assert f"n_i={small.n_i!r}" in repr(small)


def test_part2_parameter_validation():
    with pytest.raises(ParameterError):
        sequence_part2(1, 0.6, 0.5, 4, 4)  # beta too large
    with pytest.raises(ParameterError):
        sequence_part2(1, 0.6, 0.25, 1, 4)  # gamma inadmissible
    with pytest.raises(ParameterError):
        sequence_part2(0, 0.6, 0.25, 4, 4)


@pytest.mark.parametrize("mode, kwargs", [("part1", {}), ("part2", {"beta": 0.25})])
def test_window_report_rejects_unknown_window(mode, kwargs):
    alpha, gamma = (0.3, 13) if mode == "part1" else (0.6, 4)
    with pytest.raises(ValueError, match="unknown window 'bogus'"):
        window_report(10**6, alpha, gamma, mode=mode, window="bogus", **kwargs)
    # The CLI passes --window in both modes; part 2 takes either name and
    # reports its own window.
    for window in ("existence", "gap"):
        report = window_report(10**6, alpha, gamma, mode=mode, window=window, **kwargs)
        assert report.window == (window if mode == "part1" else "part2")


def test_window_report_part1():
    report = window_report(1000, 0.3, 13, mode="part1", window="existence")
    assert report.window == "existence"
    assert report.window_low < report.window_high
    # Every reported floor really lies inside the closed window.
    for a in report.admissible_a:
        s = w_vertex_count(a, 13, 4)
        assert report.window_low <= s <= report.window_high


@pytest.mark.parametrize("window", ["existence", "gap"])
def test_window_report_part1_matches_brute_force_for_every_r(window):
    # Every a <= 80 is tested against the window endpoints at 60 mpmath
    # digits, with s(a) = a + (gamma+1)(r^a - 1)/(r - 1) written out, so a
    # candidate bound that ignores r shows as a missing floor.
    gamma, alpha = 13, Fraction(3, 10)
    consts = part1_constants(alpha, gamma)
    k = consts.k
    if window == "existence":
        low_q, high_q, add = consts.C1 * k, consts.C2 * k, Fraction(0)
    else:
        low_q, high_q, add = consts.c * k, k, consts.epsilon

    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    nonempty = 0
    with mpmath.workdps(60):
        for r in (2, 3, 4):
            for n in (10**5, 10**8, 10**12):
                fn = mpmath.mpf(n) ** mp(alpha) * mpmath.log(n)
                lo, hi = mp(low_q) * fn, mp(high_q) * fn + mp(add)
                expected = []
                for a in range(1, 81):
                    s = a + (gamma + 1) * (r**a - 1) // (r - 1)
                    if (lo <= s <= hi) if window == "existence" else (lo < s < hi):
                        expected.append(a)
                report = window_report(n, alpha, gamma, r=r, window=window)
                assert report.admissible_a == tuple(expected), (r, n)
                nonempty += bool(expected)
    assert nonempty >= 3


# perfbench's grow-certify grid: n = 10^2 .. 10^12 in quarter decades.
PIN_GRID = [round(10 ** (k / 4)) for k in range(8, 49)]
# sha256 digests of the rows below, recorded with the window comparisons
# that enclosed f(x) once per comparison and placed three rationals each
# (and the 40-digit mpmath seed of the floor search); every field of every
# row is covered, integers as hex.
ANALYTICS_DIGESTS = {
    ("window", "part1", 2, "existence"): "eb6d633f5bff60c9b603c7616bd0599ec0e6fc7e353b13755db6c4b04c70d3a4",
    ("window", "part1", 2, "gap"): "ecbf4fa4fe75d09a654b8da34a965fffb84f2bd8271e150def5c6d13e09e3028",
    ("window", "part1", 3, "existence"): "a598e1e21f85840802c37d0e18c9c3e18122e60b966a6f7ddba8da360804b472",
    ("window", "part1", 3, "gap"): "8caf92cb29ab922865ec421cb30873c0f09ab8d0ac6435be4cc5795eb0b73544",
    ("window", "part1", 4, "existence"): "099e218e4386dc36ee1185fca7500a375bc3135b08ca9fd8fdf45f0ea810d970",
    ("window", "part1", 4, "gap"): "b3eca24713dd3a8e95a5a218fc10e0e71b812fefa4bde2a60ffc37ef88fb1498",
    ("window", "part2", 2): "70df7d24fc894e03429a814e2fc3b1e17d49c464f76ea402b1a213bab8efd65c",
    ("window", "part2", 4): "85beef3e3a9d149c0eee5bf0c24f07b8f90426ff1e198967b1eb15dbbaa823bd",
    ("part1", 10): "389e6d7e1af382ea437cfbeaa7ed58c503efee5befdbe8d9e72bdc0c9e37b11f",
    ("part1", 13): "4a0059128fb5c13ff9a9f120055dd649b3e2a5ae73382f05e0ec3b3c7da4d327",
    ("part2", 2): "492b83356475eff2c0c6d45c0145df813ab4b3084af22afca29a098ebc888a70",
    ("part2", 4): "aa56c248c2f98b3071ec20d5d0581af3909f7a60f4e100bd8c88ba07029bf140",
}


def _canon(x):
    # Part-2 floors have far more digits than int repr allows.
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            _canon(getattr(x, fld.name)) for fld in dataclasses.fields(x)
        )
    if isinstance(x, tuple):
        return tuple(_canon(v) for v in x)
    if type(x) is int:
        return hex(x)
    return x


def _pinned_rows(key):
    if key[:2] == ("window", "part1"):
        _, _, r, window = key
        return [window_report(n, 0.3, 10, r=r, window=window) for n in PIN_GRID]
    if key[:2] == ("window", "part2"):
        return [window_report(n, 0.6, 4, r=key[2], mode="part2", beta=0.25)
                for n in PIN_GRID]
    if key[0] == "part1":
        return [sequence_part1(i, 0.3, key[1]) for i in range(3, 13)]
    # r = 4 stops at i = 3: at i = 8 its floors have about 10^9 digits.
    return [sequence_part2(i, 0.6, 0.25, 4, key[1])
            for i in range(1, 9 if key[1] == 2 else 4)]


@pytest.mark.parametrize(
    "key", list(ANALYTICS_DIGESTS), ids=["-".join(map(str, k)) for k in ANALYTICS_DIGESTS]
)
def test_analytics_rows_are_pinned_exactly(key):
    h = hashlib.sha256()
    for row in _pinned_rows(key):
        h.update(repr(_canon(row)).encode())
        h.update(b"\n")
    assert h.hexdigest() == ANALYTICS_DIGESTS[key]


@pytest.mark.parametrize("window", ["existence", "gap"])
def test_window_report_encloses_f_once_per_precision(monkeypatch, window):
    # The doubles decide every comparison of these reports, so they
    # enclose nothing.  With the float rung off, one call compares every
    # candidate floor against both endpoints at the same n, so it needs
    # one enclosure of f(n) per precision level; an identical second call
    # does the same work again (no enclosure is kept between calls).
    precisions = []
    real_ln = analytics._enclose_ln

    def counting_ln(x, prec):
        precisions.append(prec)
        return real_ln(x, prec)

    monkeypatch.setattr(analytics, "_enclose_ln", counting_ln)
    reports = {n: window_report(n, 0.3, 10, r=2, window=window)
               for n in (10**4, 10**8, 10**12)}
    assert precisions == []
    monkeypatch.setattr(analytics, "_in_doubles", lambda alpha, x: (math.nan,) * 3)
    for n, report in reports.items():
        assert window_report(n, 0.3, 10, r=2, window=window) == report
        first, precisions[:] = list(precisions), []
        assert first and len(first) == len(set(first)), (n, first)
        assert window_report(n, 0.3, 10, r=2, window=window) == report
        assert precisions == first
        precisions.clear()


def test_sequence_part1_encloses_each_x_once_per_precision(monkeypatch):
    # Up to i = 5 the doubles decide the floor searches and both windows,
    # so those rows enclose nothing.  From i = 6 on, f(m) <= target <
    # f(m + 1) is closer than doubles resolve (about alpha / m relative)
    # and the floor search encloses its last probes.  The floor search's
    # comparer at m_i (and at n_i) is the one the window at that floor
    # compares on, so, with the rung on or off, no x is enclosed twice at
    # one precision within a row; with it off, m_i and n_i are enclosed.
    enclosed = []
    real_ln = analytics._enclose_ln
    monkeypatch.setattr(analytics, "_enclose_ln",
                        lambda x, prec: enclosed.append((x, prec)) or real_ln(x, prec))
    rows = {}
    for i in range(3, 13):
        rows[i] = sequence_part1(i, 0.3, 10)
        assert i > 5 or enclosed == [], (i, enclosed)
        assert len(enclosed) == len(set(enclosed)), (i, enclosed)
        enclosed.clear()
    monkeypatch.setattr(analytics, "_in_doubles", lambda alpha, x: (math.nan,) * 3)
    for i, row in rows.items():
        assert sequence_part1(i, 0.3, 10) == row
        assert (row.m_i, 80) in enclosed and (row.n_i, 80) in enclosed
        assert len(enclosed) == len(set(enclosed)), (i, enclosed)
        enclosed.clear()


def test_part1_constants_of_equal_arguments_of_two_types_stay_apart():
    # 0.3 means 3/10, while Fraction(0.3) is the binary float's exact value.
    # The two compare and hash equal, so constants kept across calls and
    # keyed on values alone would hand the second call the first's.
    assert sequence_part1(3, 0.3, 10).constants.alpha == Fraction(3, 10)
    assert sequence_part1(3, Fraction(0.3), 10).constants.alpha == Fraction(0.3)


def test_part2_setup_of_equal_arguments_of_two_types_stay_apart():
    # The part-2 twin of the test above.  At gamma = 5, k_gamma of 3/5 and
    # of the binary Fraction(0.6) differ in the last bit of the float the
    # window report prints, so a cache keyed on values alone would show it.
    alphas = (0.6, Fraction(0.6))

    def calls(alpha):
        return (window_report(10**6, alpha, 5, r=2, mode="part2", beta=0.25),
                sequence_part2(2, alpha, 0.25, 5, 2))

    cold = []  # not a dict: the two alphas are equal keys
    for alpha in alphas:
        analytics._part2_setup.cache_clear()
        cold.append(calls(alpha))
    assert cold[0][0].k_gamma != cold[1][0].k_gamma
    analytics._part2_setup.cache_clear()
    for _ in range(2):
        for alpha, want in zip(alphas, cold):
            assert calls(alpha) == want, repr(alpha)


def test_part2_setup_rejects_a_tuple_on_every_call():
    # The cache keeps no exceptions, so a rejected tuple is checked anew on
    # every call, also after an admissible tuple of equal alpha is cached.
    analytics._part2_setup.cache_clear()
    for _ in range(2):
        with pytest.raises(ParameterError, match="beta"):
            window_report(10**6, 0.6, 4, r=2, mode="part2", beta=0.5)
        with pytest.raises(ParameterError, match="beta"):
            sequence_part2(1, 0.6, 0.5, 4, 2)
    assert analytics._part2_setup.cache_info().currsize == 0
    sequence_part2(1, 0.6, 0.25, 4, 2)
    for _ in range(2):
        with pytest.raises(ParameterError, match="beta"):
            sequence_part2(1, 0.6, 0.5, 4, 2)
        with pytest.raises(ParameterError, match="gamma"):
            window_report(10**6, 0.6, 1, r=2, mode="part2", beta=0.25)
    assert analytics._part2_setup.cache_info().currsize == 1


def test_window_report_part2():
    report = window_report(10**6, 0.6, 4, r=4, mode="part2",
                           window="existence", beta=0.25)
    assert report.admissible_a
    with pytest.raises(ParameterError):
        window_report(100, 0.6, 4, mode="part2")  # beta required


# sha256 of the first moments over PIN_GRID at p = n^-0.3 for a <= 3 and
# gamma <= 2 (W* at r = 2, 3, 4), each as sign and float.hex of its log, or
# the ParameterError of a pattern larger than n; recorded with each
# function writing its formula out in full.
FIRST_MOMENT_DIGEST = "0c40da8633699fffae4cc81d3b0d05c570a55597281b761d9a424096a7a2103a"


def test_first_moments_are_pinned_exactly():
    h = hashlib.sha256()
    for n in PIN_GRID:
        p = n ** -0.3
        for a in (1, 2, 3):
            for gamma in (0, 1, 2):
                calls = [(expected_W, ()), (expected_W_dominating, ())]
                calls += [(expected_W_star, (r,)) for r in (2, 3, 4)]
                for fn, extra in calls:
                    try:
                        v = fn(n, p, a, gamma, *extra)
                        out = (v.sign, v.log.hex())
                    except ParameterError as exc:
                        out = str(exc)
                    h.update(repr((fn.__name__, n, a, gamma, extra, out)).encode())
    assert h.hexdigest() == FIRST_MOMENT_DIGEST


def test_import_leaves_mpmath_and_the_pool_unloaded():
    # A fresh interpreter's import loads neither mpmath nor the process
    # pool (nor the logging the pool brings).  The doubles decide a part-1
    # window report, which gives the report this process gives and leaves
    # mpmath unloaded.  A comparison they leave open, the 400-bit endpoint
    # of test_window_comparison_escalates_where_80_bits_cannot_separate,
    # loads it and gives the reference signs.
    alpha, x, q = Fraction(3, 10), 10**6, Fraction(-(2**400 + 1), 3)
    with mpmath.workprec(700):
        endpoint = _mp_fraction(q) * mpmath.power(x, _mp_fraction(alpha)) * mpmath.log(x)
        s = int(mpmath.floor(endpoint))
    src = str(Path(sparsewitness.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, sparsewitness\n"
        "from fractions import Fraction\n"
        "print(sorted({'mpmath', 'concurrent.futures', 'logging'} & set(sys.modules)))\n"
        "print(repr(sparsewitness.window_report(10**6, 0.3, 10)))\n"
        "print('mpmath' in sys.modules)\n"
        "from sparsewitness.analytics import _Comparer\n"
        f"s, q = {s}, Fraction({q.numerator}, {q.denominator})\n"
        "at = _Comparer(Fraction(3, 10), 10**6)\n"
        "print(at.compare(s, q), at.compare(s + 1, q))\n"
        "print('mpmath' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    loaded, report, mpmath_after, signs, mpmath_open = done.stdout.splitlines()
    assert loaded == "[]"
    assert report == repr(window_report(10**6, 0.3, 10))
    assert mpmath_after == "False"
    assert signs == "-1 1"
    assert mpmath_open == "True"
