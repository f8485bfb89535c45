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
from dataclasses import dataclass, field
from fractions import Fraction

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
    _numerator,
    divide,
    gauss_norm,
    group_by_x,
    is_adapted,
    lift_base,
    monomial,
    mul,
    neg,
    one,
    res_ge,
    root_pk,
    series_frac_pow,
    series_sum,
)
from .tatealg import (
    HomSpec,
    TateElement,
    evaluate,
    make_tate,
    t_scale,
    t_sum,
    tate_monomial,
)
from .valuegroup import (
    ExponentKeys,
    RadiusProfile,
    ceil_weight,
    floor_weight,
    is_p_exponent,
    one_value,
    pi_value,
    row_reduce,
    s_value,
    t_power,
    value,
    value_le,
    value_lt,
    value_max,
    value_mul,
    value_pow,
    weight_of,
    zero_value,
    zp_in_open_interval,
)

_B_SAFETY = 100_000

# Division steps M, given or derived from floor_exponent; the largest in
# use is 8.  One trial with M = 10**5 took 14 s, nearly all of it on steps
# past the floor that have nothing left to clear.  A SurjectionSpec keeps
# the window values of at most this many steps.
MAX_STEPS = 1000


def _exponent_str(q) -> str:
    """The rational exponent tuple q as the wire format writes each entry:
    (45, 0) or (1/2, 3)."""
    return "(" + ", ".join(map(str, q)) + ")"


# ---------------------------------------------------------------------------
# Representation rules and the well-order.
# ---------------------------------------------------------------------------


class AxisNonneg:
    """J = Z[1/p]_{>=0} on one variable."""

    ell = 1

    def rep(self, q):
        return (q[0],) if q[0] >= 0 else None


class AxisNonpos:
    """J = Z[1/p]_{<=0} on one variable, generated by -1."""

    ell = 1

    def rep(self, q):
        return (-q[0],) if q[0] <= 0 else None


class IndependentRep:
    """J = nonnegative Z[1/p]-span of linearly independent exponents."""

    def __init__(self, exponents, p):
        self.exponents = [tuple(Fraction(x) for x in v) for v in exponents]
        self.p = p
        self.ell = len(self.exponents)
        self.n = len(self.exponents[0]) if self.exponents else 0
        if len(row_reduce(self._system((0,) * self.n), self.ell)) != self.ell:
            raise InputValidationError(
                "monomial exponents are dependent; supply an explicit rule"
            )

    def _system(self, q):
        """The n x (ell+1) augmented system sum h_k * v_k = q."""
        return [[v[j] for v in self.exponents] + [Fraction(q[j])] for j in range(self.n)]

    def rep(self, q):
        # Solve the system exactly; the solution is unique by independence.
        aug = self._system(q)
        pivots = row_reduce(aug, self.ell)
        if any(row[self.ell] != 0 for row in aug[len(pivots):]):
            return None  # inconsistent: q outside the span
        h = [Fraction(0)] * self.ell
        for row, col in pivots:
            h[col] = aug[row][self.ell] / aug[row][col]
        for hk in h:
            if hk < 0 or not is_p_exponent(hk, self.p):
                return None
        return tuple(h)


class MinZeroRep:
    """Standard basis plus (-1,..,-1); the min-entry-zero canonical form.

    h_{n+1} = max(0, -min q_i) and h_i = q_i + h_{n+1}; the min-zero
    normalization restores uniqueness despite the single relation
    e_1 + ... + e_n + (-1,..,-1) = 0.  Covers all of Z[1/p]^n.
    """

    def __init__(self, n):
        self.n = n
        self.ell = n + 1

    def rep(self, q):
        h0 = max(Fraction(0), -min(q)) if q else Fraction(0)
        return tuple(Fraction(x) + h0 for x in q) + (h0,)


class WellOrder:
    """Order type omega on J: rank by (D, k, R, lex) with D = max(k, R).

    k is the max denominator exponent, R the bounding-box radius of the
    scaled integer vector; the diagonal D makes every shell finite.
    """

    def __init__(self, n: int, p: int, rule):
        self.n = n
        self.p = p
        self.rule = rule
        self._order = []
        self._next_shell = 0

    def _shell_members(self, D):
        out = []
        for k in range(D + 1):
            radii = [D] if k < D else range(D + 1)
            scale = self.p**k
            for R in radii:
                for v in itertools.product(range(-R, R + 1), repeat=self.n):
                    if self.n and max(abs(x) for x in v) != R:
                        continue
                    if not self.n and R > 0:
                        continue
                    if k > 0 and all(x % self.p == 0 for x in v):
                        continue
                    q = tuple(Fraction(x, scale) for x in v)
                    if self.rule.rep(q) is not None:
                        out.append(q)
        return out

    def _grow(self):
        self._order.extend(self._shell_members(self._next_shell))
        self._next_shell += 1

    def omega(self, m: int):
        """The m-th exponent, 1-based."""
        if m < 1:
            raise InputValidationError("well-order positions are 1-based")
        while len(self._order) < m:
            self._grow()
        return self._order[m - 1]


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

    def W(self, m: int) -> SeriesElement:
        """Lattice monomial prod V_k**h_{m,k} (1-based m)."""
        return _lattice_monomial(self.profile, self.V, self.h_reps[m - 1])

    def e(self, m: int) -> SeriesElement:
        return monomial(self.profile.base(), 1, self.gammas[m - 1])

    def eps(self, m: int) -> SeriesElement:
        return monomial(self.profile.base(), 1, self.deltas[m - 1])

    def beta_exp(self, m: int) -> Fraction:
        """t-exponent of beta_m."""
        return _beta_exponent(self.mode, self.gammas[m - 1], self.profile.p ** self.b[m - 1])

    def beta(self, m: int) -> SeriesElement:
        """Coefficient of W_m**(p**b_m) in the stored element (1-based m)."""
        return monomial(self.profile.base(), 1, self.beta_exp(m))

    def d(self, m: int, i: int) -> SeriesElement:
        """Elimination coefficient d_{m,i} = eps_m * beta_i, for i < m."""
        return monomial(self.profile.base(), 1, self.deltas[m - 1] + self.beta_exp(i))

    def term(self, m: int) -> SeriesElement:
        wpow = series_frac_pow(self.W(m), self.profile.p ** self.b[m - 1])
        return mul(lift_base(self.beta(m), self.profile), wpow)

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
        expr = mul(lift_base(self.eps(m), self.profile), self.element(m))
        return root_pk(expr, self.b[m - 1])


def _beta_exponent(mode: str, gamma: Fraction, pb) -> Fraction:
    """t-exponent of beta = e**pb (alpha mode) or e (direct), e = t**gamma."""
    return gamma * pb if mode == "alpha" else gamma


def _lattice_monomial(profile, V, h) -> SeriesElement:
    W = one(profile)
    for hk, vk in zip(h, V):
        W = mul(W, series_frac_pow(vk, hk))
    return W


def _check_monomials(V):
    for v in V:
        if len(v._terms) != 1 or not v.floor.zero:
            raise InputValidationError("V entries must be exact monomials")
        if not value_lt(gauss_norm(v), one_value(v.profile)):
            raise WindowError("every |V_k| must be < 1")


def _pick_e_alpha(profile, nW):
    """Exponent gamma for e_m = t**gamma with s |t|**(-1/2) < |e_m W_m| <
    s |t|**-1: |t|**gamma lies between hi = s |t|**(-1/2) / |W_m| and
    lo = s |t|**-1 / |W_m|."""
    s_over_w = value_mul(s_value(profile), value_pow(nW, -1))
    return zp_in_open_interval(value_mul(s_over_w, t_power(profile, -1)),
                               value_mul(s_over_w, t_power(profile, Fraction(-1, 2))),
                               profile.p)


def _pick_e_direct(profile, nV, nW, m: int):
    """Paper window s < |e_m| < |V| - epsilon, folding condition (1) in
    when W_m is the empty monomial."""
    lo = nV
    bound = t_power(profile, m)
    if nW == one_value(profile) and value_le(bound, nV):
        lo = bound
    hi = s_value(profile)
    if not value_lt(hi, lo):
        raise WindowError(
            f"direct-mode window empty at step {m}: cannot satisfy "
            f"s < |e_m| < |V| with the convergence requirement"
        )
    return zp_in_open_interval(lo, hi, profile.p)


def build_schedule(profile, V, well, depth, mode="alpha") -> GleasonSchedule:
    """Generic schedule builder over monomials V with a well-ordered J.

    Chooses e_m = t**gamma_m in a deterministic window, eps_m = t**delta_m
    with the smallest exponent making every |d_{m,i}| <= 1, and the least
    b_m with (1) |term| < |t|**m, (3) s < |head| < 1, (4) |term|**(1/p**b_{m-1})
    < s |pi| when m > 1 and (5) omega(m) p**b_m unlike every earlier
    omega(i) p**b_i, for the norms term = beta_m W_m**(p**b_m) and
    head = (eps_m beta_m)**(1/p**b_m) W_m.  Each window is one comparison
    of Values, so every choice is exact.

    Heights strictly increase, so both modes scan b_m from b_{m-1} + 1.
    In direct mode that start enforces the growth.  In alpha mode (4)
    fails for every b <= b_{m-1} anyway: with |t|**x = |e_m W_m|,
    |term|**(1/p**b_{m-1}) = |t|**(p**(b - b_{m-1}) x) >= min(1, |t|**x)
    > s |pi|, as _pick_e_alpha puts |t|**x above s |t|**(-1/2).  Once (1)
    holds |term| < 1, so the largest earlier height b_{m-1} is the only
    one whose (4) binds.
    """
    if not profile.is_free or profile.n < 1:
        raise InputValidationError("schedules require a free profile with n >= 1")
    if depth < 0:
        raise InputValidationError(f"schedule depth must be >= 0, got {depth}")
    p = profile.p
    one_norm, s = one_value(profile), s_value(profile)
    s_pi = value_mul(s, pi_value(profile))
    _check_monomials(V)
    nV0 = gauss_norm(V[0]) if V else one_norm

    omegas, h_reps, gammas, deltas, bs = [], [], [], [], []
    beta_min = Fraction(0)  # min(0, t-exponents of the beta_i so far)
    exps_taken = set()  # x-exponents omega(i) * p**b_i

    for m in range(1, depth + 1):
        q = well.omega(m)
        h = well.rule.rep(q)
        if h is None:
            raise InvariantViolationError("well-order emitted a non-member")
        W = _lattice_monomial(profile, V, h)
        nW = gauss_norm(W) if W._terms else one_norm
        if mode == "alpha":
            gamma = _pick_e_alpha(profile, nW)
        else:
            if value_le(nW, s):
                raise WindowError(
                    f"step {m}: |W_m| <= s, head window unreachable "
                    f"(|omega(m)| beyond the adaptedness reach for this V)"
                )
            if nW == one_norm and m > 1:
                raise WindowError(
                    f"step {m}: constant monomial after step 1 deadlocks the tails"
                )
            gamma = _pick_e_direct(profile, nV0, nW, m)

        # eps_m = t**delta_m, smallest exponent with |eps_m * beta_i| <= 1.
        delta = -beta_min
        for b_m in range(bs[-1] + 1 if bs else 0, _B_SAFETY):
            pb = p**b_m
            beta_exp = _beta_exponent(mode, gamma, pb)
            exps = tuple(x * pb for x in q)
            term = value_mul(t_power(profile, beta_exp), value_pow(nW, pb))
            head = value_mul(t_power(profile, (delta + beta_exp) / pb), nW)
            if (value_lt(term, t_power(profile, m))
                    and value_lt(head, one_norm) and value_lt(s, head)
                    and (not bs or value_lt(value_pow(term, Fraction(1, p ** bs[-1])), s_pi))
                    and exps not in exps_taken):
                break
        else:
            raise DenominatorCapError("no admissible b_m below the safety bound")

        beta_min = min(beta_min, beta_exp)
        exps_taken.add(exps)
        omegas.append(q)
        h_reps.append(h)
        gammas.append(gamma)
        deltas.append(delta)
        bs.append(b_m)

    return GleasonSchedule(
        profile, mode, depth, tuple(V), tuple(omegas), tuple(h_reps),
        tuple(gammas), tuple(deltas), tuple(bs),
    )


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


def build_gplus(profile: RadiusProfile, depth: int):
    """Gleason element for J = Z[1/p]_{>=0} with monomials x**omega(m)."""
    if profile.n != 1 or not profile.is_free:
        raise InputValidationError("build_gplus needs one free radius")
    x = monomial(profile, 1, 0, (1,))
    well = WellOrder(1, profile.p, AxisNonneg())
    schedule = build_schedule(profile, (x,), well, depth, mode="alpha")
    return schedule, schedule.element()


def build_gmultivar(profile: RadiusProfile, V, depth: int, rule=None):
    """Gleason element for the lattice spanned by the monomials V."""
    _check_monomials(V)
    if rule is None:
        D = profile.den
        rule = IndependentRep([tuple(Fraction(x, D) for x in xs)
                               for v in V for (_, xs) in v._terms], profile.p)
    well = WellOrder(profile.n, profile.p, rule)
    schedule = build_schedule(profile, tuple(V), well, depth, mode="alpha")
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
    cx_inv = mul(lift_base(c, profile), monomial(profile, 1, 0, (-1,)))
    n_cx = gauss_norm(cx_inv)
    if not (value_lt(n_cx, one_value(profile)) and value_lt(s_value(profile), n_cx)):
        raise WindowError("bad c: need s < |c x**-1| < 1")
    well = WellOrder(1, profile.p, AxisNonpos())
    schedule = build_schedule(profile, (cx_inv,), well, depth, mode="direct")
    g_minus = schedule.element()
    base = profile.base()
    terms = {}
    for m in range(1, depth + 1):
        hm = schedule.h_reps[m - 1][0]
        exp = (hm * profile.p ** schedule.b[m - 1],)
        terms[exp] = schedule.e(m)
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


@dataclass(frozen=True)
class SurjectionSpec:
    """Images (x_1..x_n, c*x_1**-1...x_n**-1, G) plus the schedule-backed
    adapted-element oracle with min-zero canonical representations; well is
    the schedule's well-order, which grows only while the schedule is built.

    _memo keeps the oracle's answer per exponent q, keyed by q's
    numerators over the profile denominator D, for up to _ANSWER_MEMO_CAP
    exponents (a DepthError is never stored); an answer depends only on q
    and the immutable spec, so it behaves as if absent.  _answers reads
    the memo with Fraction exponents.  _steps keeps divide_step's window
    values per step m (see step_values), for up to MAX_STEPS steps, and
    _empty is the one empty exact Tate part that a step which clears
    nothing returns.
    """

    n: int
    profile: RadiusProfile
    c: SeriesElement
    hom: HomSpec
    schedule: GleasonSchedule
    G: SeriesElement
    well: WellOrder = field(compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _steps: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _empty: TateElement = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_empty", t_sum(self.num_vars, self.base, ()))

    @property
    def _answers(self) -> ExponentKeys:
        return ExponentKeys(self._memo, self.profile.den)

    @property
    def num_vars(self) -> int:
        return self.n + 2

    @property
    def base(self) -> RadiusProfile:
        return self.profile.base()

    def monomial_answer(self, q, h):
        """Exact single-monomial adapted element c**h0 * x**q, when its
        norm clears s."""
        exps = tuple(h) + (Fraction(0),)
        pre = tate_monomial(self.num_vars, one(self.base), exps)
        # the hom's entry for pre's one exponent tuple, which evaluate reads too
        img = self.hom._monomial(tuple(_numerator(self.profile, x) for x in exps))
        cert = is_adapted(img, q)
        if not cert.passed:
            return None
        return OracleAnswer(pre, img, cert)

    def schedule_answer(self, q):
        if q not in self.schedule.omegas:
            raise DepthError(
                f"adapted oracle for {_exponent_str(q)}: it lies beyond the "
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
        return self.answer(tuple(_numerator(self.profile, x) for x in q))

    def answer(self, qn) -> OracleAnswer:
        """The answer for the exponent with numerators qn over D."""
        ans = self._memo.get(qn)
        if ans is None:
            q = tuple(Fraction(x, self.profile.den) for x in qn)
            ans = self.monomial_answer(q, self.well.rule.rep(q)) or self.schedule_answer(q)
            if len(self._memo) < _ANSWER_MEMO_CAP:
                self._memo[qn] = ans
        return ans

    def step_values(self, m: int):
        """divide_step's window values for step m, _step_values(profile, m)."""
        values = self._steps.get(m)
        if values is None:
            values = _step_values(self.profile, m)
            if len(self._steps) < MAX_STEPS:
                self._steps[m] = values
        return values


def standard_surjection(profile: RadiusProfile, depth: int,
                        c_exponent=None) -> SurjectionSpec:
    """The (n+2)-variable surjection: T_i -> x_i, T_{n+1} -> c*prod(x_i**-1),
    T_{n+2} -> G for the min-zero lattice Gleason element G.

    c defaults to the smallest t-power with s < |c * prod(x_i**-1)| < 1;
    a caller-supplied c_exponent is validated against the same window.
    """
    if not profile.is_free or profile.n < 1:
        raise InputValidationError("standard surjection needs a free profile, n >= 1")
    n = profile.n
    base = profile.base()
    # |c * prod(x_i**-1)| = |t|**w_c / prod(r_i) must lie in (s, 1).
    minus_ones = (Fraction(-1),) * n
    s, prod_r = s_value(profile), value(profile, 0, (1,) * n)

    def in_window(w_c) -> bool:
        norm = value(profile, w_c, minus_ones)
        return value_lt(s, norm) and value_lt(norm, one_value(profile))

    if c_exponent is not None:
        w_c = Fraction(c_exponent)
    else:
        w_c = Fraction(floor_weight(weight_of(prod_r)) + 1)
        if not in_window(w_c):
            w_c = zp_in_open_interval(prod_r, value_mul(prod_r, s), profile.p)
    if not in_window(w_c):
        raise WindowError("c exponent violates s < |c * prod(x_i**-1)| < 1")
    c = monomial(base, 1, w_c)
    v_last = monomial(profile, 1, w_c, minus_ones)
    V = tuple(monomial(profile, 1, 0, tuple(Fraction(int(i == j)) for j in range(n)))
              for i in range(n)) + (v_last,)
    well = WellOrder(n, profile.p, MinZeroRep(n))
    schedule = build_schedule(profile, V, well, depth, mode="alpha")
    G = schedule.element()
    images = tuple(V[:n]) + (v_last, G)
    return SurjectionSpec(n, profile, c, HomSpec(images), schedule, G, well)


# ---------------------------------------------------------------------------
# Division algorithm and preimage reconstruction.
# ---------------------------------------------------------------------------


def _step_values(profile: RadiusProfile, m: int):
    """Step m's window values (upper, cut, bound_m, target) = (|pi|**m s,
    |pi|**(m+1) s over profile, |pi|**m and |pi|**(m+1) s over the base)."""
    base = profile.base()
    s, s_base = s_value(profile), s_value(base)
    return (value_mul(t_power(profile, m), s),
            value_mul(t_power(profile, m + 1), s),
            t_power(base, m),
            value_mul(t_power(base, m + 1), s_base))


def divide_step(oracle, beta: SeriesElement, m: int):
    """One division pass: clear every term of beta with norm >= |pi|**(m+1) s,
    asking oracle.answer(qn) for each x exponent (numerators qn over D);
    the oracle (a SurjectionSpec) also gives the step's window values and
    its empty Tate part.

    Returns (f, residual) with residual = beta - phi(f),
    |residual| <= |pi|**(m+1) s and |f| <= |pi|**m.  When beta carries a
    floor coarser than the cut, the cut clamps at the floor: stored
    terms are still cleared and the residual bound degrades to the
    floor, which is all a truncated input can certify.  A window that
    clears nothing (|beta| below the clamped cut, or no stored terms)
    returns the oracle's one empty exact Tate element and beta itself.

    The residual is beta's terms minus each lift(d) * image, accumulated
    in one dict and cut once at the max of beta's floor and the product
    floors, in that order: the terms and floor of sub(beta, the
    series_sum of the products).
    """
    profile = beta.profile
    upper, cut, bound_m, target = oracle.step_values(m)
    nb = gauss_norm(beta)
    if nb is not None and value_lt(upper, nb):
        raise InputValidationError(
            f"beta norm exceeds the step-{m} window |pi|**{m} * s"
        )
    cut = value_max(cut, beta.floor)
    if nb is None or value_lt(nb, cut):
        return oracle._empty, beta
    groups = group_by_x(res_ge(beta, cut))
    parts = []
    terms, floor = dict(beta._terms), beta.floor
    for qn, b_series in sorted(groups.items()):
        try:
            ans = oracle.answer(qn)
        except DepthError as exc:
            q = _exponent_str(Fraction(x, profile.den) for x in qn)
            raise OracleError(f"oracle failed for required exponent {q}: {exc}")
        c_series = ans.certificate.b_q
        d = divide(b_series, c_series, target_floor=target)
        nd = gauss_norm(d)
        if nd is not None and not value_lt(nd, bound_m):
            raise InvariantViolationError("division coefficient |d| >= |pi|**m")
        parts.append(t_scale(ans.preimage, d))
        floor = value_max(floor, _mul_lifted_into(terms, d, ans.image, -1))
    f = t_sum(oracle.num_vars, profile.base(), parts)
    residual = _build(profile, terms, floor)
    nres = gauss_norm(residual)
    if nres is not None and not value_le(nres, cut):
        raise InvariantViolationError("residual did not drop below |pi|**(m+1) s")
    return f, residual


@dataclass(frozen=True)
class PreimageResult:
    preimage: TateElement
    residuals: tuple  # gauss norms (Value or None) after each step


def rescale_into_window(beta: SeriesElement):
    """Multiply by an integer power of pi so that |beta| <= s; returns
    (rescaled, k) with rescaled = t**k * beta."""
    profile = beta.profile
    nb = gauss_norm(beta)
    if nb is None:
        return beta, 0
    k = max(0, ceil_weight(weight_of(value_mul(s_value(profile), value_pow(nb, -1)))))
    if k == 0:
        return beta, 0
    return mul(_monomial(profile, 1, k * profile.den, profile._one.qn), beta), k


def reconstruct_preimage(oracle, beta: SeriesElement, depth: int) -> PreimageResult:
    """Iterate the division algorithm to depth M.

    For exact beta the residual after step m has norm <= |pi|**(m+1) * s,
    monotonically nonincreasing; for a floored beta the bound clamps at
    the floor once the cuts pass it (every stored term still clears).
    Nothing at all can clear when the floor already swallows the first
    cut and beta has no stored terms; that is reported as exhaustion.
    """
    profile = beta.profile
    s = s_value(profile)
    nb = gauss_norm(beta)
    if nb is not None and value_lt(s, nb):
        raise InputValidationError("reconstruct_preimage requires |beta| <= s")
    if nb is None and not beta.floor.zero and value_lt(s, beta.floor):
        raise FloorTooCoarseError(
            "floor exhaustion: beta is unknown already at |pi| * s"
        )
    res = beta
    parts, residuals = [], []
    for m in range(depth):
        g, res = divide_step(oracle, res, m)
        parts.append(g)
        residuals.append(gauss_norm(res))
    return PreimageResult(t_sum(oracle.num_vars, profile.base(), parts), tuple(residuals))
