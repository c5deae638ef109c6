"""Small exact-arithmetic helpers: divisors, Möbius values, rational I/O.

Everything here works on plain ints and fractions.Fraction; no floats.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotADivisor, ParseError


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if type(n) is not int or n < 1:
        raise ValueError("divisors() needs a positive integer, got %r" % (n,))
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _require_divisor(m: int, r: int, r_positive: bool = False) -> None:
    """Raise NotADivisor unless m >= 1 divides r (and, if asked, r >= 1);
    both must be ints, and a bool is not one."""
    ints = type(m) is int and type(r) is int
    if not ints or m < 1 or r % m or (r_positive and r < 1):
        raise NotADivisor("m = %r does not divide r = %r" % (m, r))


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as a {prime: exponent} map (trial division)."""
    if n < 1:
        raise ValueError("prime_factors() needs a positive integer, got %r" % (n,))
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    """Möbius function: (-1)^k on squarefree n with k prime factors, else 0.

    >>> [mobius(n) for n in range(1, 11)]
    [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    """
    factors = prime_factors(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n."""
    return all(e == 1 for e in prime_factors(n).values())


# --- exact rational serialization ------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" (or bare integer, or plain decimal) string into an exact
    Fraction.

    Raises ParseError on anything that is not an exact rational literal,
    including the spellings only Python reads: non-ASCII digits, "_" and an
    exponent ("1e-5000" would be read as a Fraction whose denominator has
    5,001 digits, built before any check could refuse it).
    """
    if not isinstance(text, str):
        raise ParseError("rational must be a string like \"1/3\", got %r" % (text,))
    if not text.isascii() or "_" in text:
        raise ParseError(
            "bad rational literal %r: non-ASCII characters and '_' are refused"
            % (text,)
        )
    if "e" in text or "E" in text:
        raise ParseError("bad rational literal %r: exponents are refused" % (text,))
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad rational literal %r: %s" % (text, exc)) from None
    return value


def exact_number(value, what: str):
    """The one rule for a number handed to a library entry point.

    A str is read by parse_rational, so a refused spelling is the same
    ParseError everywhere; a float or a bool is a ValueError, where
    Fraction() would quietly take both; anything else, an int, a Fraction
    or an element of another exact field, is returned as it is.  what
    names the values in the ValueError ("grades", "entries").
    """
    if isinstance(value, (bool, float)):
        raise ValueError(
            "%s must be exact rationals, not %ss" % (what, type(value).__name__)
        )
    if isinstance(value, str):
        return parse_rational(value)
    return value


def format_rational(value: Fraction) -> str:
    """Render a Fraction as the canonical "p/q" string (q always printed).

    Anything else is read by the exact-number rule first, so a float or a
    bool is a ValueError.
    """
    if not isinstance(value, Fraction):
        value = Fraction(exact_number(value, "values"))
    return "%d/%d" % (value.numerator, value.denominator)
