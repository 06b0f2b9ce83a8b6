"""Exact coefficient rings: ZZ, QQ and prime fields GF(p).

Scalars are plain python objects: ``int`` for ZZ, ``int`` in ``[0, p)``
for GF(p), and for QQ an ``int`` when the value is integral and a
``fractions.Fraction`` with denominator > 1 otherwise, so that the integral
data of the Chevalley lattice never pays for Fraction arithmetic.  A
:class:`Ring` value tags containers with the ring their entries live in.
No floating point is allowed anywhere: ``coerce`` refuses any scalar that
is not an ``int`` or a ``Fraction`` with TypeError.
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
        return 0

    def one(self):
        return 1

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

    def add(self, a, b):
        c = a + b
        if self.kind == "GF":
            return c % self.p
        return c if type(c) is int else canonical(c)

    def sub(self, a, b):
        c = a - b
        if self.kind == "GF":
            return c % self.p
        return c if type(c) is int else canonical(c)

    def neg(self, a):
        return (-a) % self.p if self.kind == "GF" else -a

    def mul(self, a, b):
        c = a * b
        if self.kind == "GF":
            return c % self.p
        return c if type(c) is int else canonical(c)

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
