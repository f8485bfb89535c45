"""Division algorithm, Gleason-element schedules, and verified surjections.

A schedule pins, for each step m of a well-order of an exponent set J,
omega(m), its representation h_m and three scalars: gamma_m (e_m =
t**gamma_m), delta_m (eps_m = t**delta_m) and the Frobenius height b_m.
With W_m = prod V_k**h_{m,k} and beta_m = e_m**(p**b_m) (e_m in direct
mode), the stored element is G = sum_m beta_m W_m**(p**b_m) and

    (eps_m * sum_{i>=m} beta_i W_i**(p**b_i)) ** (1/p**b_m)

is (omega(m), s)-adapted.  In characteristic p the p-th root distributes
over sums, so the adapted elements have explicit finite preimages in the
perfectoid Tate algebra and the whole division/reconstruction pipeline
runs exactly.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import (
    DenominatorCapError,
    DepthError,
    FloorTooCoarseError,
    InputValidationError,
    InvariantViolationError,
    OracleError,
    WindowError,
)
from .series import (
    AdaptedCertificate,
    SeriesElement,
    _build,
    _monomial,
    _mul_lifted_into,
    gauss_norm,
    is_adapted,
    monomial,
    mul,
    neg,
    one,
    root_pk,
    series_sum,
)
from .tatealg import (
    HomSpec,
    TateElement,
    _scale_into,
    _tate_from,
    evaluate,
    make_tate,
    tate_monomial,
)
from .valuegroup import (
    RadiusProfile,
    _floor_ceil,
    _over_one_den,
    numerator,
    one_value,
    ratio_numerator,
    row_reduce,
    s_value,
    value,
    value_le,
    value_lt,
    value_t_shift,
    zero_value,
    zp_in_weight_window,
)

_B_SAFETY = 100_000

# Division steps M, given or derived from floor_exponent; the largest in
# use is 8.  One trial with M = 10**5 took 14 s, nearly all of it on steps
# past the floor that have nothing left to clear.  A SurjectionSpec keeps
# the tables of at most this many steps.
MAX_STEPS = 1000


def _exponent_tuple_str(q) -> str:
    """The rational exponent tuple q as the wire format writes each entry:
    (45, 0) or (1/2, 3)."""
    return "(" + ", ".join(map(str, q)) + ")"


# ---------------------------------------------------------------------------
# Representation rules and the well-order.
# ---------------------------------------------------------------------------


class IndependentRep:
    """J = nonnegative Z[1/p]-span of linearly independent exponents.

    The system sum h_k * v_k = q is solved once, for a symbolic q: row
    reduction of [v_1 .. v_ell | I_n] gives integer rows _solve, one per
    coefficient, with h = _solve q / _den, and integer rows _checks that
    vanish on q exactly when q lies in the span.
    """

    def __init__(self, exponents, p):
        self.exponents = [tuple(Fraction(x) for x in v) for v in exponents]
        self.p = p
        self.ell = len(self.exponents)
        self.n = len(self.exponents[0]) if self.exponents else 0
        ell, n = self.ell, self.n
        rows = [[v[j] for v in self.exponents] + [Fraction(int(i == j)) for i in range(n)]
                for j in range(n)]
        pivots = row_reduce(rows, ell)
        if len(pivots) != ell:
            raise InputValidationError(
                "monomial exponents are dependent; supply an explicit rule"
            )
        solve = [None] * ell
        for row, col in pivots:
            solve[col] = [x / rows[row][col] for x in rows[row][ell:]]
        self._solve, self._den = _integer_rows(solve)
        self._checks, _ = _integer_rows([row[ell:] for row in rows[ell:]])

    def rep_num(self, v, den):
        """h for q = v / den (integer v, den > 0) as (numerators, their
        denominator, a power of p), or None when q lies outside J."""
        if any(sum(map(operator.mul, row, v)) for row in self._checks):
            return None  # inconsistent: q outside the span
        h = [sum(map(operator.mul, row, v)) for row in self._solve]
        if any(x < 0 for x in h):
            return None
        den *= self._den
        prime_to_p = den
        while prime_to_p % self.p == 0:
            prime_to_p //= self.p
        if any(x % prime_to_p for x in h):
            return None  # some h_k outside Z[1/p]
        return tuple(x // prime_to_p for x in h), den // prime_to_p

    def rep(self, q):
        """h for the rational exponents q, as Fractions, or None."""
        q = tuple(map(Fraction, q))
        den = lcm(*(x.denominator for x in q))
        h = self.rep_num(tuple(x.numerator * (den // x.denominator) for x in q), den)
        return None if h is None else tuple(Fraction(x, h[1]) for x in h[0])


def _integer_rows(rows):
    """Rows of Fractions as (integer rows, den), rows = integer rows / den."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


class MinZeroRep:
    """Standard basis plus (-1,..,-1); the min-entry-zero canonical form.

    h_{n+1} = max(0, -min q_i) and h_i = q_i + h_{n+1}; the min-zero
    normalization restores uniqueness despite the single relation
    e_1 + ... + e_n + (-1,..,-1) = 0.  Covers all of Z[1/p]^n.
    """

    def __init__(self, n):
        self.n = n

    def rep(self, q):
        """h for the exponents q: Fractions, or integer numerators over one
        denominator (h is homogeneous in q, so it comes back over it)."""
        h0 = -min(q)
        if h0 < 0:
            h0 -= h0  # zero, of q's type
        return tuple(x + h0 for x in q) + (h0,)

    def rep_num(self, v, den):
        """h for q = v / den as (numerators, their denominator den)."""
        return self.rep(v), den


class WellOrder:
    """Order type omega on J: rank by (D, k, R, lex) with D = max(k, R).

    k is the max denominator exponent, R the bounding-box radius of the
    scaled integer vector; the diagonal D makes every shell finite.
    Members are enumerated as integer vectors v with their scale p**k, one
    at a time as positions are asked for, and omega(m) reads member m as
    Fractions.
    """

    def __init__(self, n: int, p: int, rule):
        self.n = n
        self.p = p
        self.rule = rule
        self._order = []  # (v, p**k): the members so far, in rank order
        self._members = self._enumerate()

    def _enumerate(self):
        n, p, rule = self.n, self.p, self.rule
        for D in itertools.count():
            for k in range(D + 1):
                scale = p**k
                for R in [D] if k < D else range(D + 1):
                    for v in itertools.product(range(-R, R + 1), repeat=n):
                        if max(map(abs, v)) != R:
                            continue
                        if k > 0 and all(x % p == 0 for x in v):
                            continue
                        if rule.rep_num(v, scale) is not None:
                            yield v, scale

    def _grow(self):
        self._order.append(next(self._members))

    def member(self, m: int):
        """The m-th exponent (1-based) as (v, p**k): omega(m) = v / p**k in
        lowest terms."""
        if m < 1:
            raise InputValidationError("well-order positions are 1-based")
        while len(self._order) < m:
            self._grow()
        return self._order[m - 1]

    def omega(self, m: int):
        """The m-th exponent, 1-based."""
        v, scale = self.member(m)
        return tuple(Fraction(x, scale) for x in v)


# ---------------------------------------------------------------------------
# Schedules.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GleasonSchedule:
    """Finite-depth Gleason data: per step, omega(m), h_m and the scalars
    gamma_m, delta_m, b_m; everything else is derived from them.

    mode 'alpha' uses coefficients beta_m = e_m**(p**b_m) (the generic
    construction); mode 'direct' uses beta_m = e_m (bounded one-variable
    preimages).  d(m, i) = eps_m * beta_i for i < m; the head coefficient
    eps_m * beta_m may have norm above 1 and is not one of them.
    """

    profile: RadiusProfile
    mode: str
    depth: int
    V: tuple
    omegas: tuple
    h_reps: tuple
    gammas: tuple
    deltas: tuple
    b: tuple

    def _lattice_key(self, m: int):
        """_lattice_key of W_m = prod V_k**h_{m,k} (1-based m)."""
        return _lattice_key(self.profile, self.V,
                            ((h.numerator, h.denominator) for h in self.h_reps[m - 1]))

    def W(self, m: int) -> SeriesElement:
        """Lattice monomial prod V_k**h_{m,k} (1-based m)."""
        t, xs, c = self._lattice_key(m)
        return _monomial(self.profile, c, t, xs)

    def beta_exp(self, m: int) -> Fraction:
        """t-exponent of beta_m, the coefficient of W_m**(p**b_m) in G."""
        return _beta_exponent(self.mode, self.gammas[m - 1], self.profile.p ** self.b[m - 1])

    def d(self, m: int, i: int) -> SeriesElement:
        """Elimination coefficient d_{m,i} = eps_m * beta_i, for i < m."""
        return monomial(self.profile.base(), 1, self.deltas[m - 1] + self.beta_exp(i))

    def term(self, m: int) -> SeriesElement:
        """beta_m W_m**(p**b_m), one monomial: W_m's key times p**b_m plus
        beta_m's t exponent, and W_m's coefficient (c**p = c in F_p)."""
        t, xs, c = self._lattice_key(m)
        pb = self.profile.p ** self.b[m - 1]
        return _monomial(self.profile, c, numerator(self.profile, self.beta_exp(m)) + pb * t,
                         tuple(pb * x for x in xs))

    def element(self, start: int = 1) -> SeriesElement:
        """The stored finite Gleason element (exact); from a later start
        step, its tail sum_{i>=start} beta_i W_i**(p**b_i)."""
        return series_sum(self.profile, map(self.term, range(start, self.depth + 1)))

    def preimage(self, m: int) -> TateElement:
        """Step m's preimage in len(V) + 1 variables (T_k -> V_k, last -> G):
        t**(delta_m/p**b_m) T_last**(1/p**b_m) minus, for each i < m,
        t**((delta_m + beta_i)/p**b_m) prod T_k**(h_{i,k} p**b_i/p**b_m).
        It maps to adapted_expression(m); the oracle serves it and
        verify_schedule certifies it."""
        if not 1 <= m <= self.depth:
            raise DepthError(f"schedule has depth {self.depth}, asked for step {m}")
        base = self.profile.base()
        pb = self.profile.p ** self.b[m - 1]
        delta = self.deltas[m - 1]
        pairs = [((Fraction(0),) * len(self.V) + (Fraction(1, pb),),
                  monomial(base, 1, delta / pb))]
        for i in range(1, m):
            pbi = self.profile.p ** self.b[i - 1]
            pairs.append((tuple(hk * pbi / pb for hk in self.h_reps[i - 1]) + (Fraction(0),),
                          neg(monomial(base, 1, (delta + self.beta_exp(i)) / pb))))
        return make_tate(len(self.V) + 1, base, pairs)

    def adapted_expression(self, m: int) -> SeriesElement:
        """(eps_m * sum_{i>=m} beta_i W_i**(p**b_i)) ** (1/p**b_m), exact."""
        if not 1 <= m <= self.depth:
            raise DepthError(f"schedule has depth {self.depth}, asked for step {m}")
        expr = mul(monomial(self.profile, 1, self.deltas[m - 1]), self.element(m))
        return root_pk(expr, self.b[m - 1])


def _beta_exponent(mode: str, gamma: Fraction, pb) -> Fraction:
    """t-exponent of beta = e**pb (alpha mode) or e (direct), e = t**gamma."""
    return gamma * pb if mode == "alpha" else gamma


def _lattice_key(profile, V, h):
    """(t, xs, c) for the monomial c t**(t/D) x**(xs/D) = prod V_k**h_k, from
    the terms of the exact one-term V_k and h given as (numerator,
    denominator) pairs.  Each exponent h_k e of a factor V_k**h_k with
    h_k != 0 passes ratio_numerator, the one admission gate, in the order
    k, then t before xs; c = prod c_k**num_k, as c**(1/p) = c in F_p."""
    D, p = profile.den, profile.p
    t, xs, c = 0, [0] * profile.n, 1
    for (num, den), v in zip(h, V):
        if num:
            ((vt, vxs), vc), = v._terms.items()
            scale = den * D
            t += ratio_numerator(profile, num * vt, scale)
            for i, x in enumerate(vxs):
                xs[i] += ratio_numerator(profile, num * x, scale)
            c = c * pow(vc, num, p) % p
    return t, tuple(xs), c


def _check_monomials(V):
    """Refuse V unless each entry is an exact monomial of norm below 1."""
    for v in V:
        if len(v._terms) != 1 or not v.floor.zero:
            raise InputValidationError("V entries must be exact monomials")
        if not value_lt(gauss_norm(v), one_value(v.profile)):
            raise WindowError("every |V_k| must be < 1")


def _pick_e_alpha(profile, tW, xW):
    """Exponent gamma for e_m = t**gamma with s |t|**(-1/2) < |e_m W_m| <
    s |t|**-1, for W_m's key (tW, xW) over D: in weights, sigma - 1 - w(W_m)
    < gamma < sigma - 1/2 - w(W_m), both ends over 2 E for s's denominator E."""
    s = profile._s
    f = 2 * (s.den // profile.den)
    a = 2 * s.an - f * tW
    xs = [-f * x for x in xW]
    return zp_in_weight_window(profile, (a - 2 * s.den, xs), (a - s.den, xs), 2 * s.den,
                               profile.p)


def _pick_e_direct(profile, V, m: int, w_is_one: bool):
    """Exponent gamma for e_m = t**gamma in the paper window s < |e_m| <
    |V_1| (|V| = 1 when V is empty), with condition (1) folded in when W_m
    is the empty monomial: |e_m| < |t|**m too.  In weights w_lo < gamma <
    sigma_s for w_lo = w(V_1), or max(w(V_1), m) when w_is_one, both ends
    over s's denominator E; an empty window raises WindowError."""
    s = profile._s
    f = s.den // profile.den
    (a, xs), = V[0]._terms if V else ((0, s.qn),)
    a, xs = a * f, tuple(x * f for x in xs)
    if w_is_one and profile._sign(a - m * s.den, xs) < 0:
        a, xs = m * s.den, s.qn
    return zp_in_weight_window(profile, (a, xs), (s.an, s.qn), s.den, profile.p)


def _require_sigma_at_least_one(profile):
    """Refuse sigma_s < 1, where no alpha-mode build can start."""
    if profile.sigma_s < 1:
        raise InputValidationError(f"sigma_s = {profile.sigma_s} is below 1: no Frobenius"
                                   f" height meets |term| < |t| at step 1")


def build_schedule(profile, V, rule, depth, mode="alpha") -> GleasonSchedule:
    """Generic schedule builder over monomials V, stepping through the
    well-order of the exponent set J whose members rule.rep_num represents.

    Chooses e_m = t**gamma_m in a deterministic window, eps_m = t**delta_m
    with the smallest exponent making every |d_{m,i}| <= 1, and the least
    b_m with (1) |term| < |t|**m, (3) s < |head| < 1, (4) |term|**(1/p**b_{m-1})
    < s |pi| when m > 1 and (5) omega(m) p**b_m unlike every earlier
    omega(i) p**b_i, for the norms term = beta_m W_m**(p**b_m) and
    head = (eps_m beta_m)**(1/p**b_m) W_m.  In weights, p**b_m w(head) =
    delta_m + w(term) in both modes, and delta_m >= 0, so once (1) holds
    w(head) > 0: the half |head| < 1 of (3) follows from (1) and is not
    tested apart.

    Every choice is decided on integers, so it is exact.  The well-order
    and rule.rep_num give omega(m) and h_m as integer numerators over
    powers of p; W_m's key (t and x exponent numerators over D) is the sum
    of the keys of V scaled by h_m (_lattice_key, whose admission refuses
    exponents past the cap); gamma_m comes from the weight window of
    _pick_e_alpha or _pick_e_direct, and direct mode's |W_m| <= s refusal
    is one call of the sign kernel on W_m's key; and each of (1), (3) and
    (4) is one such call on weight numerators over F = lcm(s's
    denominator, those of gamma_m and delta_m).  The builder makes no
    series element, and in neither mode does a step make a Value.

    Heights strictly increase, so both modes scan b_m from b_{m-1} + 1.
    In direct mode that start enforces the growth.  In alpha mode (4)
    fails for every b <= b_{m-1} anyway: with |t|**x = |e_m W_m|,
    |term|**(1/p**b_{m-1}) = |t|**(p**(b - b_{m-1}) x) >= min(1, |t|**x)
    > s |pi|, as _pick_e_alpha puts |t|**x above s |t|**(-1/2).  Once (1)
    holds |term| < 1, so the largest earlier height b_{m-1} is the only
    one whose (4) binds.

    Alpha mode needs s <= |pi|, that is sigma_s >= 1.  Below 1, step 1
    (omega(1) = 0, W_1 = 1) picks gamma_1 in (sigma_s - 1, sigma_s - 1/2):
    the picker's first try, 0, lies in that window when sigma_s > 1/2, and
    otherwise the whole window is negative.  So gamma_1 <= 0, and
    |term| = |e_1|**(p**b) >= 1 fails (1) at every height.  At or above 1
    every |e_m W_m| < s |t|**-1 <= 1, so |term| and the tail norm fall and
    |head| tends to |e_m W_m| in (s, 1) as b grows: the scan ends.
    """
    if not profile.is_free or profile.n < 1:
        raise InputValidationError("schedules require a free profile with n >= 1")
    if depth < 0:
        raise InputValidationError(f"schedule depth must be >= 0, got {depth}")
    if mode == "alpha":
        _require_sigma_at_least_one(profile)
    p, D, sign, s = profile.p, profile.den, profile._sign, profile._s
    _check_monomials(V)
    well = WellOrder(profile.n, p, rule)

    omegas, h_reps, gammas, deltas, bs = [], [], [], [], []
    beta_min = Fraction(0)  # min(0, t-exponents of the beta_i so far)
    exps_taken = set()  # x-exponents omega(i) * p**b_i, as _scaled_key gives them

    for m in range(1, depth + 1):
        v, scale = well.member(m)
        hn, hden = rule.rep_num(v, scale)
        # W_m's key; its exponents must fit the cap, as W(m) needs
        tW, xW, _ = _lattice_key(profile, V, ((x, hden) for x in hn))
        if mode == "alpha":
            gamma = _pick_e_alpha(profile, tW, xW)
        else:
            f = s.den // D
            if sign(tW * f - s.an, tuple(x * f for x in xW)) >= 0:  # |W_m| <= s
                raise WindowError(
                    f"step {m}: |W_m| <= s, head window unreachable "
                    f"(|omega(m)| beyond the adaptedness reach for this V)"
                )
            w_is_one = not tW and not any(xW)
            if w_is_one and m > 1:
                raise WindowError(
                    f"step {m}: constant monomial after step 1 deadlocks the tails"
                )
            gamma = _pick_e_direct(profile, V, m, w_is_one)

        # eps_m = t**delta_m, smallest exponent with |eps_m * beta_i| <= 1.
        delta = -beta_min
        # Every window in weights, as numerators over F: gamma -> g,
        # delta -> d, sigma -> sig and W_m -> (tF, xF).
        F = lcm(s.den, gamma.denominator, delta.denominator)
        g = gamma.numerator * (F // gamma.denominator)
        d = delta.numerator * (F // delta.denominator)
        sig = s.an * (F // s.den)
        tF, xF = tW * (F // D), [x * (F // D) for x in xW]
        for b_m in range(bs[-1] + 1 if bs else 0, _B_SAFETY):
            pb = p**b_m
            beta = g * pb if mode == "alpha" else g
            # w(term) = (a_term + xs.alpha) / F and p**b_m w(head) =
            # (a_term + d + xs.alpha) / F: (1), s < |head| of (3), (4), (5),
            # each a sign of one xs, so one floor of the sign kernel's memo
            a_term, xs = beta + pb * tF, tuple(pb * x for x in xF)
            if (sign(a_term - m * F, xs) > 0
                    and sign(a_term + d - sig * pb, xs) < 0
                    and (not bs or sign(a_term - (sig + F) * p ** bs[-1], xs) > 0)
                    and _scaled_key(v, scale, pb) not in exps_taken):
                break
        else:
            raise DenominatorCapError("no admissible b_m below the safety bound")

        beta_min = min(beta_min, _beta_exponent(mode, gamma, pb))
        exps_taken.add(_scaled_key(v, scale, pb))
        omegas.append(tuple(Fraction(x, scale) for x in v))
        h_reps.append(tuple(Fraction(x, hden) for x in hn))
        gammas.append(gamma)
        deltas.append(delta)
        bs.append(b_m)

    return GleasonSchedule(
        profile, mode, depth, tuple(V), tuple(omegas), tuple(h_reps),
        tuple(gammas), tuple(deltas), tuple(bs),
    )


def _scaled_key(v, scale, pb):
    """The exponent (v / scale) * pb, for powers scale and pb of p and v /
    scale in lowest terms, as (numerators, p-power denominator) in lowest
    terms: equal keys exactly when the exponents are equal."""
    if pb >= scale:
        return tuple(x * (pb // scale) for x in v), 1
    return v, scale // pb


def verify_schedule(schedule: GleasonSchedule, G: SeriesElement):
    """Check every step against the element G: every |d_{m,i}| <= 1,
    preimage(m) evaluates under T_k -> V_k, T_last -> G to
    adapted_expression(m), and that passes is_adapted.  Returns the
    certificates; raises InvariantViolationError on any failure."""
    hom = HomSpec(schedule.V + (G,))
    exact = zero_value(schedule.profile)
    certs = []
    for m in range(1, schedule.depth + 1):
        for i in range(1, m):
            if schedule.deltas[m - 1] + schedule.beta_exp(i) < 0:
                raise InvariantViolationError(f"schedule step {m}: |d_{{{m},{i}}}| > 1")
        expr = schedule.adapted_expression(m)
        if evaluate(schedule.preimage(m), hom, exact) != expr:
            raise InvariantViolationError(
                f"schedule step {m}: the subtractive form differs from the "
                f"closed-form adapted expression"
            )
        cert = is_adapted(expr, schedule.omegas[m - 1])
        if not cert.passed:
            raise InvariantViolationError(
                f"schedule step {m} is not adapted: checks={cert.checks}"
            )
        certs.append(cert)
    return tuple(certs)


# ---------------------------------------------------------------------------
# Named constructions.
# ---------------------------------------------------------------------------


def _lattice_rule(profile: RadiusProfile, V) -> IndependentRep:
    """J spanned by the x exponents of the monomials V."""
    D = profile.den
    return IndependentRep([tuple(Fraction(x, D) for x in xs)
                           for v in V for (_, xs) in v._terms], profile.p)


def build_gmultivar(profile: RadiusProfile, V, depth: int, rule=None):
    """Gleason element for the lattice spanned by the monomials V, or for
    the exponent set of an explicit rule."""
    schedule = build_schedule(profile, tuple(V), rule or _lattice_rule(profile, V),
                              depth, mode="alpha")
    return schedule, schedule.element()


def build_gminus(profile: RadiusProfile, c: SeriesElement, depth: int):
    """Gleason element for J = Z[1/p]_{<=0} with a bounded one-variable
    preimage sum(e_m * T**(|omega(m)| p**b_m)) under T -> c x**-1.

    The head window caps the reachable |omega(m)| at sigma_s / w(c x**-1);
    beyond it the build raises WindowError (the published construction
    does not extend past that reach with norm-bounded coefficients).
    """
    if profile.n != 1 or not profile.is_free:
        raise InputValidationError("build_gminus needs one free radius")
    if c.profile != profile.base() or len(c._terms) != 1:
        raise InputValidationError("c must be a base-field monomial")
    ((t, _), c0), = c._terms.items()
    cx_inv = _monomial(profile, c0, t, (-profile.den,))
    n_cx = gauss_norm(cx_inv)
    if not (value_lt(n_cx, one_value(profile)) and value_lt(s_value(profile), n_cx)):
        raise WindowError("bad c: need s < |c x**-1| < 1")
    schedule = build_schedule(profile, (cx_inv,), _lattice_rule(profile, (cx_inv,)),
                              depth, mode="direct")
    g_minus = schedule.element()
    base = profile.base()
    terms = {}
    for m in range(1, depth + 1):
        hm = schedule.h_reps[m - 1][0]
        exp = (hm * profile.p ** schedule.b[m - 1],)
        terms[exp] = monomial(base, 1, schedule.gammas[m - 1])
    preimage = make_tate(1, base, terms)
    return schedule, g_minus, preimage


# ---------------------------------------------------------------------------
# The standard surjection and its adapted-element oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleAnswer:
    preimage: TateElement
    image: SeriesElement
    certificate: AdaptedCertificate


# Most oracle answers that one SurjectionSpec keeps.
_ANSWER_MEMO_CAP = 512

# Most division windows, one per step m and x exponent, that one
# SurjectionSpec keeps; a seed-1 benchmark pass uses 168 (surject-n1) and
# 573 (surject-n2).
_WINDOW_MEMO_CAP = 4096


@dataclass(frozen=True)
class SurjectionSpec:
    """Images (x_1..x_n, c*x_1**-1...x_n**-1, G) plus the schedule-backed
    adapted-element oracle with min-zero canonical representations; rule
    is the schedule's representation rule, which the monomial oracle reads.

    _memo keeps the oracle's answer per exponent q, keyed by q's
    numerators over the profile denominator D, for up to _ANSWER_MEMO_CAP
    exponents (a DepthError is never stored); an answer depends only on q
    and the immutable spec, so it behaves as if absent.  _steps keeps one
    table per division step m (see step), for up to MAX_STEPS steps, and
    the tables hold up to _WINDOW_MEMO_CAP integer windows in all.
    """

    n: int
    profile: RadiusProfile
    c: SeriesElement
    hom: HomSpec
    schedule: GleasonSchedule
    rule: MinZeroRep = field(compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _steps: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def G(self) -> SeriesElement:
        return self.hom.images[-1]

    @property
    def num_vars(self) -> int:
        return self.n + 2

    @property
    def base(self) -> RadiusProfile:
        return self.profile.base()

    def monomial_answer(self, q):
        """Exact single-monomial adapted element c**h0 * x**q, when its
        norm clears s."""
        exps = self.rule.rep(q) + (Fraction(0),)
        pre = tate_monomial(self.num_vars, one(self.base), exps)
        (en,) = pre._terms  # its one exponent tuple, the hom key evaluate reads too
        img = self.hom._monomial(en)
        cert = is_adapted(img, q)
        if not cert.passed:
            return None
        return OracleAnswer(pre, img, cert)

    def schedule_answer(self, q):
        if q not in self.schedule.omegas:
            raise DepthError(
                f"adapted oracle for {_exponent_tuple_str(q)}: it lies beyond the "
                f"schedule's depth {self.schedule.depth}"
            )
        m = self.schedule.omegas.index(q) + 1
        image = self.schedule.adapted_expression(m)
        cert = is_adapted(image, q)
        if not cert.passed:
            raise InvariantViolationError(f"schedule step {m} lost adaptedness")
        return OracleAnswer(self.schedule.preimage(m), image, cert)

    def __call__(self, q) -> OracleAnswer:
        """The answer for the rational exponent q."""
        q = tuple(Fraction(x) for x in q)
        if len(q) != self.n:
            raise InputValidationError(f"exponent arity {len(q)}, expected {self.n}")
        return self.answer(tuple(numerator(self.profile, x) for x in q))

    def answer(self, qn) -> OracleAnswer:
        """The answer for the exponent with numerators qn over D."""
        ans = self._memo.get(qn)
        if ans is None:
            q = tuple(Fraction(x, self.profile.den) for x in qn)
            ans = self.monomial_answer(q) or self.schedule_answer(q)
            if len(self._memo) < _ANSWER_MEMO_CAP:
                self._memo[qn] = ans
        return ans

    def step(self, m: int):
        """Division step m's table (cut, windows): the cut |pi|**(m+1) s and
        the integer windows {xs: window(m, xs)} filled so far."""
        table = self._steps.get(m)
        if table is None:
            table = value_t_shift(s_value(self.profile), m + 1), {}
            if len(self._steps) < MAX_STEPS:
                self._steps[m] = table
        return table

    def window(self, m: int, xs: tuple):
        """divide_step's integer window for step m and the x exponent
        numerators xs over D: (lo, hi) such that the term t**(a/D) x**(xs/D)
        has norm > |pi|**m s exactly when a < lo and norm >= the cut
        |pi|**(m+1) s exactly when a <= hi.  Both ends are s times a power
        of |t|, so one rounding of X = D w(s / |x**(xs/D)|) gives them:
        lo = ceil(X) + m D and hi = floor(X) + (m+1) D, where X has the
        numerators D s.an and D s.q_i - s.den xs_i over s.den."""
        windows = self.step(m)[1]
        bounds = windows.get(xs)
        if bounds is None:
            D, s = self.profile.den, s_value(self.profile)
            floor, ceil = _floor_ceil(self.profile, D * s.an, tuple(
                D * q - s.den * x for q, x in zip(s.qn, xs)), s.den)
            bounds = ceil + m * D, floor + (m + 1) * D
            if sum(len(table[1]) for table in self._steps.values()) < _WINDOW_MEMO_CAP:
                windows[xs] = bounds
        return bounds


def standard_surjection(profile: RadiusProfile, depth: int,
                        c_exponent=None) -> SurjectionSpec:
    """The (n+2)-variable surjection: T_i -> x_i, T_{n+1} -> c*prod(x_i**-1),
    T_{n+2} -> G for the min-zero lattice Gleason element G.

    c defaults to t**ceil(sum(sqrt(d_i))), the least integer t-power with
    |c * prod(x_i**-1)| < 1; a caller-supplied c_exponent outside the window
    s < |c * prod(x_i**-1)| < 1 is an input error.
    """
    if not profile.is_free or profile.n < 1:
        raise InputValidationError("standard surjection needs a free profile, n >= 1")
    _require_sigma_at_least_one(profile)  # the default c needs sigma_s >= 1
    n = profile.n
    base = profile.base()
    # |c * prod(x_i**-1)| = |t|**w_c / prod(r_i) must lie in (s, 1).
    minus_ones = (Fraction(-1),) * n
    if c_exponent is not None:
        w_c = Fraction(c_exponent)
        norm = value(profile, w_c, minus_ones)
        if not (value_lt(s_value(profile), norm) and value_lt(norm, one_value(profile))):
            raise InputValidationError("c_exponent violates s < |c * prod(x_i**-1)| < 1")
    else:
        # ceil(r) - r lies in (0, 1) for the irrational r = sum(sqrt(d_i)),
        # inside (0, sigma_s) as sigma_s >= 1
        w_c = Fraction(_floor_ceil(profile, 0, (1,) * n, 1)[1])
    c = monomial(base, 1, w_c)
    V = tuple(monomial(profile, 1, 0, tuple(Fraction(int(i == j)) for j in range(n)))
              for i in range(n)) + (monomial(profile, 1, w_c, minus_ones),)
    rule = MinZeroRep(n)
    schedule, G = build_gmultivar(profile, V, depth, rule=rule)
    return SurjectionSpec(n, profile, c, HomSpec(V + (G,)), schedule, rule)


# ---------------------------------------------------------------------------
# Division algorithm and preimage reconstruction.
# ---------------------------------------------------------------------------


def divide_step(oracle, beta: SeriesElement, m: int, acc: dict) -> SeriesElement:
    """One division pass: clear every term of beta with norm >= the cut
    |pi|**(m+1) s, asking oracle.answer(qn) for each x exponent (numerators
    qn over D), and return the residual beta - phi(f), |residual| <= the
    cut, for the step's Tate part f, |f| <= |pi|**m, which goes into the
    Tate accumulator acc (see tatealg._scale_into).  A step that clears
    nothing returns beta itself and adds nothing to acc.  When beta's floor
    lies above the cut, the cut clamps at the floor: every stored term
    still clears, and the residual bound degrades to the floor, all that a
    truncated input can certify.

    The window runs on integer term keys: (lo, hi) from the step's table
    oracle.step(m), or else oracle.window(m, xs), decides both bounds of a
    term (a, xs): a < lo is a norm above |pi|**m s, the window error, and
    a <= hi a norm >= the cut, so an exact beta's window compares no
    Values.  The certificate's b_q must be one term c0 t**(t0 / D) (see
    AdaptedCertificate), so each division coefficient b / b_q is a key
    shift, the term dict d of sum c c0**-1 t**((t - t0) / D), and
    |d| < |pi|**m is the one comparison a > m D for a its least t
    numerator (the base and the profile share D).  d times the answer's
    preimage goes into acc, and the residual is beta's terms minus each
    lift(d) * image, accumulated in one dict and cut once at beta's floor.
    """
    profile = beta.profile
    cut, table = oracle.step(m)
    if not beta.floor.zero and value_lt(cut, beta.floor):
        cut = beta.floor
    groups = {}
    for (a, xs), c in beta._terms.items():
        lo_hi = table.get(xs)
        if lo_hi is None:
            lo_hi = oracle.window(m, xs)
        if a < lo_hi[0]:
            raise InputValidationError(
                f"beta norm exceeds the step-{m} window |pi|**{m} * s"
            )
        if a <= lo_hi[1]:
            group = groups.get(xs)
            if group is None:
                groups[xs] = group = {}
            group[a] = c
    if not groups:
        return beta
    p, bound = profile.p, m * profile.den
    terms = dict(beta._terms)
    for qn, b_terms in sorted(groups.items()):
        try:
            ans = oracle.answer(qn)
        except DepthError as exc:
            q = _exponent_tuple_str(Fraction(x, profile.den) for x in qn)
            raise OracleError(f"oracle failed for required exponent {q}: {exc}")
        if len(ans.certificate.b_q._terms) != 1:
            q = _exponent_tuple_str(Fraction(x, profile.den) for x in qn)
            raise InvariantViolationError(f"the coefficient b_q of x**{q} is not a monomial")
        ((t0, _), c0), = ans.certificate.b_q._terms.items()
        if min(b_terms) - t0 <= bound:
            raise InvariantViolationError("division coefficient |d| >= |pi|**m")
        inv = pow(c0, -1, p)
        d = {(t - t0, ()): c * inv % p for t, c in b_terms.items()}
        _scale_into(acc, ans.preimage._terms.items(), d, p)
        _mul_lifted_into(terms, d.items(), ans.image._terms, p, -1)
    residual = _build(profile, terms, beta.floor)
    nres = gauss_norm(residual)
    if nres is not None and not value_le(nres, cut):
        raise InvariantViolationError("residual did not drop below |pi|**(m+1) s")
    return residual


@dataclass(frozen=True)
class PreimageResult:
    preimage: TateElement
    residuals: tuple  # gauss norms (Value or None) after each step


def rescale_into_window(beta: SeriesElement):
    """Multiply by an integer power of pi so that |beta| <= s; returns
    (rescaled, k) with rescaled = t**k * beta, as the key shift by k D
    with beta's floor and stored norm times |t|**k."""
    profile = beta.profile
    nb = gauss_norm(beta)
    if nb is None:
        return beta, 0
    sa, sq, na, nq, den = _over_one_den(s_value(profile), nb)
    k = max(0, _floor_ceil(profile, sa - na, tuple(map(operator.sub, sq, nq)), den)[1])
    if k == 0:
        return beta, 0
    kD = k * profile.den
    rescaled = SeriesElement._raw(profile, {(t + kD, xs): c for (t, xs), c in
                                            beta._terms.items()}, value_t_shift(beta.floor, k))
    object.__setattr__(rescaled, "_norm", value_t_shift(nb, k))
    return rescaled, k


def reconstruct_preimage(oracle, beta: SeriesElement, depth: int) -> PreimageResult:
    """Iterate the division algorithm to depth M, every step adding its Tate
    part into one accumulator, from which the preimage is built once.

    For exact beta the residual after step m has norm <= |pi|**(m+1) * s,
    monotonically nonincreasing; for a floored beta the bound clamps at
    the floor once the cuts pass it (every stored term still clears).
    Nothing at all can clear when the floor already swallows the first
    cut and beta has no stored terms; that is reported as exhaustion.
    """
    profile = beta.profile
    s = s_value(profile)
    nb = gauss_norm(beta)
    if nb is not None and not value_le(nb, s):
        raise InputValidationError("reconstruct_preimage requires |beta| <= s")
    if nb is None and not beta.floor.zero and value_lt(s, beta.floor):
        raise FloorTooCoarseError(
            "floor exhaustion: beta is unknown already at |pi| * s"
        )
    res, acc, residuals = beta, {}, []
    for m in range(depth):
        res = divide_step(oracle, res, m, acc)
        residuals.append(gauss_norm(res))
    return PreimageResult(_tate_from(oracle.num_vars, profile.base(), acc), tuple(residuals))
