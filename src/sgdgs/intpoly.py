"""Integer polynomial algebra.

Provides the exact univariate toolkit the certificate rests on: resultants
(subresultant PRS), discriminants, square-free parts, irreducibility over
the rationals, and full factorization over the integers (distinct-degree /
equal-degree splitting mod p, Hensel lifting, subset recombination).

Polynomials are immutable, stored as ascending integer coefficient tuples
with no trailing zeros; the zero polynomial has an empty tuple and degree
-1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

from .errors import InternalInvariantError, UndefinedInputError
from .factorint import first_primes
from .kernels import poly_add, poly_mul


class IntPolynomial:
    """Dense univariate polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients):
        cs = [int(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "IntPolynomial":
        """self divided by its content, sign normalized to positive lc."""
        if self.is_zero():
            return self
        c = self.content()
        if self.lc < 0:
            c = -c
        return IntPolynomial(a // c for a in self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return IntPolynomial(poly_add(self.coeffs, _as_poly(other).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        return IntPolynomial(poly_mul(self.coeffs, _as_poly(other).coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = IntPolynomial.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, value):
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def compose_x_squared(self) -> "IntPolynomial":
        """p(x^2): interleave coefficients with zeros."""
        out = []
        for c in self.coeffs:
            out.append(c)
            out.append(0)
        return IntPolynomial(out[:-1] if out else out)

    # -- comparisons / misc ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (IntPolynomial((other,)).coeffs)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self):
        return format_poly(self)


def _as_poly(value) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    raise TypeError(f"cannot coerce {type(value).__name__} to IntPolynomial")


# -- text format -------------------------------------------------------------


def parse_poly(line: str) -> IntPolynomial:
    """Parse the one-line ascending-coefficient format, e.g. '-1 0 1'."""
    parts = line.split()
    if not parts:
        raise ValueError("empty polynomial line")
    return IntPolynomial(int(tok) for tok in parts)


def format_poly_line(p: IntPolynomial) -> str:
    """Ascending coefficients on one line (inverse of parse_poly)."""
    if p.is_zero():
        return "0"
    return " ".join(str(c) for c in p.coeffs)


def format_poly(p: IntPolynomial, var: str = "x") -> str:
    """Human-readable rendering, highest degree first."""
    if p.is_zero():
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


# -- division and gcd over Z -------------------------------------------------


def poly_divmod_exact(f: IntPolynomial, g: IntPolynomial):
    """(q, r) with f = q*g + r over the rationals, returned only when both
    have integer coefficients; None otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    fq = [Fraction(c) for c in f.coeffs]
    gq = [Fraction(c) for c in g.coeffs]
    q = [Fraction(0)] * max(len(fq) - len(gq) + 1, 0)
    inv_lc = Fraction(1, 1) / gq[-1]
    r = fq[:]
    for i in range(len(r) - len(gq), -1, -1):
        coef = r[i + len(gq) - 1] * inv_lc
        if coef:
            q[i] = coef
            for j, gc in enumerate(gq):
                r[i + j] -= coef * gc
    while r and r[-1] == 0:
        r.pop()
    if any(c.denominator != 1 for c in q) or any(c.denominator != 1 for c in r):
        return None
    return IntPolynomial(int(c) for c in q), IntPolynomial(int(c) for c in r)


def try_exact_divide(f: IntPolynomial, g: IntPolynomial):
    """Quotient f/g when g divides f over the integers, else None."""
    qr = poly_divmod_exact(f, g)
    if qr is None:
        return None
    q, r = qr
    return q if r.is_zero() else None


def _pseudo_rem(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """prem(f, g): remainder of lc(g)^(deg f - deg g + 1) * f divided by g."""
    d = f.degree - g.degree
    lc_g = g.lc
    r = list(f.coeffs)
    gs = g.coeffs
    for i in range(d, -1, -1):
        top = r[i + g.degree]
        for j in range(len(r)):
            r[j] *= lc_g
        if top:
            for j, gc in enumerate(gs):
                r[i + j] -= top * gc
        r[i + g.degree] = 0
    return IntPolynomial(r)


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """gcd over Z (primitive PRS), positive leading coefficient."""
    if f.is_zero():
        return g.primitive_part() * abs(g.content()) if not g.is_zero() else g
    if g.is_zero():
        return f.primitive_part() * abs(f.content())
    cont = math.gcd(f.content(), g.content())
    a, b = f.primitive_part(), g.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive_part() if not r.is_zero() else r
    return a.primitive_part() * cont


# -- resultant / discriminant -------------------------------------------------


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Exact resultant via the subresultant PRS scheme."""
    if f.is_zero() and g.is_zero():
        raise UndefinedInputError("resultant of two zero polynomials")
    if f.is_zero() or g.is_zero():
        return 0
    if f.degree == 0 and g.degree == 0:
        return 1
    if f.degree == 0:
        return f.lc ** g.degree
    if g.degree == 0:
        return g.lc ** f.degree

    sign = 1
    if f.degree < g.degree:
        if f.degree % 2 == 1 and g.degree % 2 == 1:
            sign = -1
        f, g = g, f
    a_cont, b_cont = abs(f.content()), abs(g.content())
    A = IntPolynomial(c // a_cont for c in f.coeffs)
    B = IntPolynomial(c // b_cont for c in g.coeffs)
    scale = a_cont ** B.degree * b_cont ** A.degree

    g_prev, h_prev = 1, 1
    while True:
        delta = A.degree - B.degree
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            sign = -sign
        rem = _pseudo_rem(A, B)
        A = B
        divisor = g_prev * h_prev**delta
        B = IntPolynomial(_exact_div(c, divisor) for c in rem.coeffs)
        g_prev = A.lc
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h_prev = g_prev
        else:
            h_prev = _exact_div(g_prev**delta, h_prev ** (delta - 1))
        if B.degree <= 0:
            break
    if B.is_zero():
        return 0
    d = A.degree
    h_final = B.lc if d == 1 else _exact_div(B.lc**d, h_prev ** (d - 1))
    return sign * scale * h_final


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise InternalInvariantError(f"non-exact division {a} / {b}")
    return q


def discriminant(f: IntPolynomial) -> int:
    """(-1)^(n(n-1)/2) * Res(f, f') / lc(f); 1 for degree 1 (empty product)."""
    n = f.degree
    if n < 1:
        raise UndefinedInputError("discriminant requires degree >= 1")
    if n == 1:
        return 1
    res = resultant(f, f.derivative())
    return (-1) ** (n * (n - 1) // 2) * _exact_div(res, f.lc)


def squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """f / gcd(f, f') up to content; positive leading coefficient."""
    if f.is_zero():
        raise UndefinedInputError("square-free part of the zero polynomial")
    prim = f.primitive_part()
    if prim.degree <= 0:
        return IntPolynomial.one()
    g = poly_gcd(prim, prim.derivative())
    if g.degree == 0:
        return prim
    q = try_exact_divide(prim, g)
    if q is None:  # pragma: no cover - gcd always divides
        raise InternalInvariantError("gcd does not divide its argument")
    return q.primitive_part()


# -- arithmetic mod m (dense ascending int lists) ------------------------------
#
# m is a prime p, or a prime power p^k for Hensel lifting.  Division needs a
# divisor whose leading coefficient is a unit mod m: any nonzero one mod p,
# a monic one mod p^k.


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_from_poly(coeffs, m: int) -> list[int]:
    return _gf_trim([c % m for c in coeffs])


def _gf_add(a, b, m):
    n = max(len(a), len(b))
    return _gf_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m for i in range(n)])


def _gf_sub(a, b, m):
    n = max(len(a), len(b))
    return _gf_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m for i in range(n)])


def _gf_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % m
    return _gf_trim(out)


def _gf_scale(a, s, m):
    return _gf_trim([c * s % m for c in a])


def _gf_divmod(a, b, m):
    if not b:
        raise ZeroDivisionError("gf division by zero")
    inv = pow(b[-1], -1, m)
    r = [c % m for c in a]
    if len(r) < len(b):
        return [], _gf_trim(r)
    q = [0] * (len(r) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        coef = r[i + len(b) - 1] * inv % m
        if coef:
            q[i] = coef
            for j, bc in enumerate(b):
                r[i + j] = (r[i + j] - coef * bc) % m
    return _gf_trim(q), _gf_trim(r[: len(b) - 1])


def _gf_monic(a, p):
    if not a:
        return a
    return _gf_scale(a, pow(a[-1], -1, p), p)


def _gf_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def _gf_gcdex(a, b, p):
    """(s, t, g) with s*a + t*b = g (monic gcd) mod p."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    if not r0:
        raise ZeroDivisionError("gcdex of zero polynomials")
    inv = pow(r0[-1], -1, p)
    return _gf_scale(s0, inv, p), _gf_scale(t0, inv, p), _gf_monic(r0, p)


def _gf_pow_mod(base, e, mod, p):
    result = [1]
    base = _gf_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _gf_divmod(_gf_mul(result, base, p), mod, p)[1]
        base = _gf_divmod(_gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _gf_distinct_degree(f, p):
    """Distinct-degree split of a monic f mod p, lazily by increasing d:
    yields (g_d, d), g_d the product of f's irreducible factors of degree d
    when f is square-free.  Stage d takes gcd(g, x^(p^d) - x) with g the
    part of f not yet split off; once g cannot hold two factors of degree
    above d, what is left (if anything) is one irreducible factor.
    """
    g = list(f)
    h = [0, 1]
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_pow_mod(h, p, g, p)
        gd = _gf_gcd(g, _gf_sub(h, [0, 1], p), p)
        if len(gd) > 1:
            yield gd, d
            g = _gf_divmod(g, gd, p)[0]
            h = _gf_divmod(h, g, p)[1]
    if len(g) > 1:
        yield g, len(g) - 1


def _gf_is_irreducible(f, p) -> bool:
    """Ben-Or's test for monic f mod p (Ben-Or, "Probabilistic algorithms
    in finite fields", FOCS 1981): the first stage of _gf_distinct_degree.

    Up to the first split that stage computes h = x^(p^k) mod f for
    k = 1, ..., floor(n/2) and fails at the first k with
    gcd(f, h - x) != 1.  It is exact, square-free f or not:
    x^(p^k) - x is the product of the monic irreducibles of degree
    dividing k, and a reducible f of degree n has an irreducible factor of
    degree at most n/2, so some k <= n/2 < n finds it; an irreducible f
    has no factor of degree below n, so its first stage is (f, n).  A
    reducible f usually stops after one or two Frobenius steps.
    """
    n = len(f) - 1
    return n > 0 and next(_gf_distinct_degree(f, p))[1] == n


def _gf_factor_squarefree(f, p, rng: random.Random):
    """Monic irreducible factors of a monic square-free f mod p (p odd)."""
    factors = []
    # equal-degree splitting (Cantor-Zassenhaus) of each distinct-degree stage
    for prod, d in _gf_distinct_degree(f, p):
        work = [prod]
        while work:
            cur = work.pop()
            deg = len(cur) - 1
            if deg == d:
                factors.append(cur)
                continue
            while True:
                r = [rng.randrange(p) for _ in range(deg)]
                r = _gf_trim(r)
                if len(r) < 2:
                    continue
                b = _gf_pow_mod(r, (p**d - 1) // 2, cur, p)
                b = _gf_sub(b, [1], p)
                g1 = _gf_gcd(cur, b, p)
                if 1 < len(g1) < len(cur):
                    work.append(g1)
                    work.append(_gf_divmod(cur, g1, p)[0])
                    break
    factors.sort()
    return factors


# -- Hensel lifting -----------------------------------------------------------


def _hensel_step(m, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m) to the same mod m^2.

    f, g, h monic; returns (g*, h*, s*, t*).  Von zur Gathen & Gerhard,
    Algorithm 15.10.
    """
    mm = m * m
    e = _gf_sub(f, _gf_mul(g, h, mm), mm)
    q, r = _gf_divmod(_gf_mul(s, e, mm), h, mm)
    g_new = _gf_add(g, _gf_add(_gf_mul(t, e, mm), _gf_mul(q, g, mm), mm), mm)
    h_new = _gf_add(h, r, mm)
    b = _gf_sub(_gf_add(_gf_mul(s, g_new, mm), _gf_mul(t, h_new, mm), mm), [1], mm)
    c, d = _gf_divmod(_gf_mul(s, b, mm), h_new, mm)
    s_new = _gf_sub(s, d, mm)
    t_new = _gf_sub(t, _gf_add(_gf_mul(t, b, mm), _gf_mul(c, g_new, mm), mm), mm)
    return g_new, h_new, s_new, t_new


def _hensel_lift_factors(f, facs, p, target):
    """Lift monic mod-p factors of monic f to factors mod p^target.

    Splits the factor list in half, lifts the two subproducts, recurses.
    """
    if len(facs) == 1:
        return [_gf_from_poly(f, p**target)]
    half = len(facs) // 2
    g = [1]
    for fac in facs[:half]:
        g = _gf_mul(g, fac, p)
    h = [1]
    for fac in facs[half:]:
        h = _gf_mul(h, fac, p)
    s, t, one = _gf_gcdex(g, h, p)
    if one != [1]:  # pragma: no cover - factors are coprime mod p
        raise InternalInvariantError("modular factors not coprime")
    m = p
    exponent = 1
    while exponent < target:
        g, h, s, t = _hensel_step(m, _gf_from_poly(f, m * m), g, h, s, t)
        m *= m
        exponent *= 2
    pk = p**target
    return (
        _hensel_lift_factors(_gf_from_poly(g, pk), facs[:half], p, target)
        + _hensel_lift_factors(_gf_from_poly(h, pk), facs[half:], p, target)
    )


# -- factorization over Z ------------------------------------------------------


def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if 2 * c > m else c


def _mignotte_bound(coeffs) -> int:
    n = len(coeffs) - 1
    norm = math.isqrt(sum(c * c for c in coeffs)) + 1
    return (norm * abs(coeffs[-1])) << n


def _factor_monic_squarefree(
    coeffs: list[int], rng: random.Random, disc: int | None = None
) -> list[list[int]]:
    """Irreducible monic factors of a monic square-free integer polynomial.

    disc, when given, must be its discriminant.
    """
    n = len(coeffs) - 1
    if n <= 1:
        return [coeffs]
    if disc is None:
        disc = discriminant(IntPolynomial(coeffs))
    p = None
    for q in first_primes(200)[1:]:  # odd primes
        if disc % q != 0:
            p = q
            break
    if p is None:  # pragma: no cover - 200 primes cannot all divide disc here
        raise InternalInvariantError("no good prime found for factorization")
    fp = _gf_from_poly(coeffs, p)
    modular = _gf_factor_squarefree(fp, p, rng)
    if len(modular) == 1:
        return [coeffs]
    bound = _mignotte_bound(coeffs)
    target = 1
    pk = p
    while pk <= 2 * bound:
        pk *= p
        target += 1
    lifted = _hensel_lift_factors(coeffs, modular, p, target)
    big = p**target

    result = []
    remaining = list(range(len(lifted)))
    current = coeffs
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for subset in combinations(remaining, size):
            cand = [1]
            for i in subset:
                cand = _gf_mul(cand, lifted[i], big)
            cand = [_sym(c, big) for c in cand]
            q = try_exact_divide(IntPolynomial(current), IntPolynomial(cand))
            if q is not None:
                result.append(cand)
                current = list(q.coeffs)
                remaining = [i for i in remaining if i not in subset]
                found = True
                break
        if not found:
            size += 1
    if len(current) > 1:
        result.append(current)
    return result


def _factor_primitive_squarefree(
    f: IntPolynomial, disc: int | None = None
) -> list[IntPolynomial]:
    """Irreducible factors of a primitive square-free f with positive lc.

    disc, when given, must be the discriminant of f; it is used only when f
    is monic (the associate of a non-monic f has another discriminant).
    """
    if f.degree <= 0:
        return []
    lc = f.lc
    if lc == 1:
        parts = _factor_monic_squarefree(list(f.coeffs), random.Random(0xF2C7), disc)
        return [IntPolynomial(c) for c in parts]
    # associate the monic polynomial lc^(n-1) * f(x / lc) and map factors back
    n = f.degree
    monic = [c * lc ** (n - 1 - i) for i, c in enumerate(f.coeffs[:-1])] + [1]
    parts = _factor_monic_squarefree(monic, random.Random(0xF2C7))
    factors = []
    for part in parts:
        mapped = IntPolynomial(c * lc**i for i, c in enumerate(part)).primitive_part()
        factors.append(mapped)
    check = IntPolynomial.one()
    for g in factors:
        check = check * g
    if check.primitive_part() != f:  # pragma: no cover - defensive
        raise InternalInvariantError("factor reconstruction failed")
    return factors


def factor(f: IntPolynomial) -> tuple[int, list[tuple[IntPolynomial, int]]]:
    """Full factorization over Z: (integer unit*content, [(irreducible, mult)]).

    Irreducible factors are primitive with positive leading coefficients,
    sorted by (degree, coefficients).
    """
    if f.is_zero():
        raise UndefinedInputError("cannot factor the zero polynomial")
    content = f.content() if f.lc > 0 else -f.content()
    prim = f.primitive_part()
    if prim.degree <= 0:
        return content, []
    sf = squarefree_part(prim)
    irreducibles = _factor_primitive_squarefree(sf)
    out = []
    for g in irreducibles:
        mult = 0
        cur = prim
        while True:
            q = try_exact_divide(cur, g)
            if q is None:
                break
            cur = q
            mult += 1
        out.append((g, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    recon = IntPolynomial((content,))
    for g, e in out:
        recon = recon * g**e
    if recon != f:  # pragma: no cover - defensive
        raise InternalInvariantError("factorization does not reconstruct input")
    return content, out


# -- irreducibility -------------------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Outcome of the irreducibility test over the rationals.

    status: 'irreducible' or 'reducible'.  For reducible inputs the
    witness is a nontrivial factor; for irreducible ones the method that
    settled it ('degree-1', 'mod-p' with the prime, or 'factorization').
    """

    status: str
    method: str | None = None
    prime: int | None = None
    witness: IntPolynomial | None = None

    @property
    def irreducible(self) -> bool:
        return self.status == "irreducible"


_MOD_P_ATTEMPTS = 25


def _reducible_mod_every_odd_prime(f: IntPolynomial) -> bool:
    """True when f mod p is reducible for every odd p not dividing lc * disc.

    Holds for a primitive f of degree n >= 2 in two cases:

    (a) f(0) = 0: x divides f.
    (b) n = 2m, every odd coefficient is 0, and
        c = (-1)^m * f(0) * lc(f) is a nonzero perfect square.

    Proof of (b).  Let p be odd with p not dividing lc * disc, and suppose
    f mod p is irreducible with a root alpha in F_(p^2m).  Then p does not
    divide f(0) (else x | f mod p), so alpha != 0 and -alpha != alpha.
    Since f is even, -alpha is a root too, so it lies in the Frobenius
    orbit of alpha, which has length 2m: -alpha = alpha^(p^k) with
    0 < k < 2m, and applying Frobenius k more times gives alpha^(p^2k) =
    alpha, so 2m | 2k, k = m and alpha^(p^m) = -alpha.  Hence
    gamma = alpha^2 lies in F_(p^m) while its square roots +-alpha do not:
    gamma is a non-square in F_(p^m).  Pairing the roots alpha^(p^i) and
    alpha^(p^(i+m)) = -alpha^(p^i) gives
        f(0) / lc = N(alpha) = (-1)^m * N_(F_(p^m)/F_p)(gamma),
    and the norm preserves the quadratic character
    (N(gamma)^((p-1)/2) = gamma^((p^m-1)/2)), so (-1)^m * f(0) / lc, and
    with it c = ((-1)^m * f(0) / lc) * lc^2, is a non-square mod p.  But c
    is a square in Z, prime to p, hence a square mod p: a contradiction.

    Tree charpolys with a perfect matching (phi = psi(x^2), constant term
    (-1)^m) satisfy (b); so do x^4 + 1 and x^4 + x^2 + 1.
    """
    cs = f.coeffs
    n = len(cs) - 1
    if n < 2:
        return False
    if cs[0] == 0:
        return True
    if n % 2 or any(cs[1::2]):
        return False
    c = (-1) ** (n // 2) * cs[0] * cs[-1]
    return c > 0 and math.isqrt(c) ** 2 == c


def is_irreducible(f: IntPolynomial, disc: int | None = None) -> IrreducibilityVerdict:
    """Irreducibility over Q.

    disc, when given, must be the discriminant of f's primitive part; it
    spares recomputing it, here and in the factorization fallback.

    Fast path: f mod p irreducible for one of the first 25 usable primes
    (odd, not dividing lc * disc) proves irreducibility, since p does not
    divide lc and a factorization over Q would reduce to one mod p.  Each
    prime is tried with Ben-Or's test (_gf_is_irreducible), which is exact
    over F_p, so the proving prime is the first usable prime at which f is
    irreducible; primes where f splits are usually left after one or two
    Frobenius steps.  The fast path is skipped when no such prime can
    exist: when x divides f, or when f is even with
    (-1)^(n/2) * f(0) * lc(f) a perfect square, as every tree charpoly with
    a perfect matching is (see _reducible_mod_every_odd_prime for the
    proof).  Otherwise, or after a skip, the full integer factorization
    decides.
    """
    if f.is_zero():
        raise UndefinedInputError("irreducibility of the zero polynomial")
    prim = f.primitive_part()
    n = prim.degree
    if n == 0:
        raise UndefinedInputError("irreducibility requires degree >= 1")
    if n == 1:
        return IrreducibilityVerdict("irreducible", method="degree-1")
    if disc is None:
        disc = discriminant(prim)
    if disc == 0:
        witness = poly_gcd(prim, prim.derivative())
        if 0 < witness.degree < n:
            return IrreducibilityVerdict("reducible", witness=witness)
        raise InternalInvariantError("zero discriminant without repeated factor")
    if not _reducible_mod_every_odd_prime(prim):
        usable = (p for p in first_primes(2000)[1:] if (prim.lc * disc) % p)
        for p in islice(usable, _MOD_P_ATTEMPTS):
            if _gf_is_irreducible(_gf_monic(_gf_from_poly(prim.coeffs, p), p), p):
                return IrreducibilityVerdict("irreducible", method="mod-p", prime=p)
    # disc(-prim) = disc(prim): Res(-f, -f') = -Res(f, f') and lc(-f) = -lc(f)
    factors = _factor_primitive_squarefree(prim if prim.lc > 0 else -prim, disc)
    if len(factors) == 1:
        return IrreducibilityVerdict("irreducible", method="factorization")
    witness = factors[0]
    q = try_exact_divide(prim, witness)
    if q is None or witness.degree == 0 or witness.degree == n:  # pragma: no cover
        raise InternalInvariantError("invalid reducibility witness")
    return IrreducibilityVerdict("reducible", method="factorization", witness=witness)
