"""Exact coefficient rings: ZZ, QQ and prime fields GF(p).

Scalars are plain python objects: ``int`` for ZZ, ``int`` in ``[0, p)``
for GF(p), and for QQ an ``int`` when the value is integral and a
``fractions.Fraction`` with denominator > 1 otherwise, so that the integral
data of the Chevalley lattice never pays for Fraction arithmetic; no other
module names Fraction.  A :class:`Ring` is a tag on containers with two
operations, ``coerce``, the one normaliser of an int or a Fraction, and
``div``; Python's operators do the rest, and the container normalises
their results (``SparseMatrix._closed``, ``canonical``).  ``integer_maps``
is the one split of QQ maps over a common denominator.  GF(p) takes an odd
prime below PRIME_BOUND.  No float is allowed anywhere: ``coerce`` refuses
any scalar that is not an ``int`` or a ``Fraction`` with TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class Ring:
    kind: str  # "ZZ", "QQ" or "GF"
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("ZZ", "QQ", "GF"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "GF" and not is_odd_prime(self.p):
            raise ValueError(f"GF modulus must be an odd prime below {PRIME_BOUND}, got {self.p}")

    @property
    def is_field(self) -> bool:
        return self.kind in ("QQ", "GF")

    def coerce(self, x):
        """Coerce an int/Fraction into this ring: GF reps in [0, p), QQ
        values in canonical form; any other type raises TypeError."""
        if type(x) is not int:
            if isinstance(x, Fraction):
                if self.kind == "GF":
                    den = pow(x.denominator % self.p, -1, self.p)
                    return (x.numerator % self.p) * den % self.p
                if x.denominator == 1:
                    return x.numerator
                if self.kind == "ZZ":
                    raise ValueError(f"{x} is not an integer")
                return x
            if not isinstance(x, int):
                raise TypeError(f"{type(x).__name__} {x!r} is not an exact scalar (int or Fraction)")
            x = int(x)   # bool or another int subclass
        return x % self.p if self.kind == "GF" else x

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if self.kind == "QQ":
            if type(a) is int and type(b) is int and not a % b:
                return a // b
            return canonical(Fraction(a, b))
        if self.kind == "GF":
            return a * pow(b, -1, self.p) % self.p
        q, r = divmod(a, b)
        if r != 0:
            raise ValueError(f"{a} not divisible by {b} over ZZ")
        return q

    def __str__(self):
        return f"GF({self.p})" if self.kind == "GF" else self.kind


def canonical(x):
    """The canonical QQ form of an int or Fraction: its numerator when it is
    integral, else itself (an int is its own numerator)."""
    return x.numerator if x.denominator == 1 else x


def integer_maps(maps) -> tuple:
    """(den, int_maps): the QQ maps {key: scalar} as integer maps over one
    common denominator, den the lcm of their entries' denominators and
    maps[i][key] = int_maps[i][key] / den; zero entries are kept."""
    den = lcm(*(c.denominator for m in maps for c in m.values()))
    return den, [{k: c.numerator * (den // c.denominator) for k, c in m.items()} for m in maps]


ZZ = Ring("ZZ")
QQ = Ring("QQ")


def GF(p: int) -> Ring:
    return Ring("GF", p)


# Miller-Rabin to the bases 2, 3, ..., 37 (the first twelve primes) is exact
# below this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86 (2017)); a larger modulus is refused.
PRIME_BOUND = 318665857834031151167461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_odd_prime(n: int) -> bool:
    """n is an odd prime below PRIME_BOUND: deterministic Miller-Rabin."""
    if n < 3 or n % 2 == 0 or n >= PRIME_BOUND:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        if a % n == 0:
            return True   # n is one of the witnesses, so prime
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def format_rational(x) -> str:
    """Serialise a scalar as "a/b" with b > 0 in lowest terms, "a" if b = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def is_two_power_denominator(x) -> bool:
    """Membership test for R = Z[1/2]: the denominator is a power of 2."""
    d = x.denominator
    while d % 2 == 0:
        d //= 2
    return d == 1
