"""Exact coefficient rings: ZZ, QQ and prime fields GF(p).

Scalars are plain python objects: ``int`` for ZZ, ``fractions.Fraction``
for QQ and ``int`` in ``[0, p)`` for GF(p).  A :class:`Ring` value tags
containers with the ring their entries live in; no floating point is
allowed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Ring:
    kind: str  # "ZZ", "QQ" or "GF"
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("ZZ", "QQ", "GF"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "GF":
            if self.p < 3 or self.p % 2 == 0 or not _is_prime(self.p):
                raise ValueError(f"GF modulus must be an odd prime, got {self.p}")

    @property
    def is_field(self) -> bool:
        return self.kind in ("QQ", "GF")

    def zero(self):
        return Fraction(0) if self.kind == "QQ" else 0

    def one(self):
        return Fraction(1) if self.kind == "QQ" else 1

    def coerce(self, x):
        """Coerce an int/Fraction into this ring, normalising GF reps."""
        if self.kind == "ZZ":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                return int(x)
            return int(x)
        if self.kind == "QQ":
            return Fraction(x)
        # GF(p)
        if isinstance(x, Fraction):
            den = pow(x.denominator % self.p, -1, self.p)
            return (x.numerator % self.p) * den % self.p
        return int(x) % self.p

    def add(self, a, b):
        c = a + b
        return c % self.p if self.kind == "GF" else c

    def sub(self, a, b):
        c = a - b
        return c % self.p if self.kind == "GF" else c

    def neg(self, a):
        return (-a) % self.p if self.kind == "GF" else -a

    def mul(self, a, b):
        c = a * b
        return c % self.p if self.kind == "GF" else c

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if self.kind == "QQ":
            return Fraction(a) / b
        if self.kind == "GF":
            return a * pow(b, -1, self.p) % self.p
        q, r = divmod(a, b)
        if r != 0:
            raise ValueError(f"{a} not divisible by {b} over ZZ")
        return q

    def __str__(self):
        return f"GF({self.p})" if self.kind == "GF" else self.kind


ZZ = Ring("ZZ")
QQ = Ring("QQ")


def GF(p: int) -> Ring:
    return Ring("GF", p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def format_rational(x) -> str:
    """Serialise a scalar as "a/b" with b > 0 in lowest terms, "a" if b = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def is_two_power_denominator(x) -> bool:
    """Membership test for R = Z[1/2]: the denominator is a power of 2."""
    d = Fraction(x).denominator
    while d % 2 == 0:
        d //= 2
    return d == 1
