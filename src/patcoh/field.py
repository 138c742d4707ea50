"""Exact arithmetic in Q and real quadratic fields Q(sqrt(D)).

Elements are pairs (a, b) of rationals representing a + b*sqrt(D); over the
rationals b is identically zero.  No floating point is used anywhere:
field coordinates are Fractions, and the engine's hot paths (orbit labels,
integer kernels, wedge ranks) clear denominators and work on plain ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def _is_squarefree(d: int) -> bool:
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coordinate field: the rationals or a real quadratic field Q(sqrt(D))."""

    kind: str  # "Q" or "Qsqrt"
    D: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "Q":
            if self.D is not None:
                raise ValueError("rational field carries no discriminant")
        elif self.kind == "Qsqrt":
            if self.D is None or not _is_squarefree(self.D):
                raise ValueError(f"D must be a squarefree integer >= 2, got {self.D}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def degree(self) -> int:
        return 1 if self.kind == "Q" else 2

    def elem(self, a, b=0) -> FElem:
        return FElem(Fraction(a), Fraction(b), self)

    @property
    def zero(self) -> FElem:
        return self.elem(0)

    @property
    def one(self) -> FElem:
        return self.elem(1)

    def __repr__(self) -> str:
        return "Q" if self.kind == "Q" else f"Q(sqrt {self.D})"


QQ = FieldSpec("Q")


def quadratic(D: int) -> FieldSpec:
    return FieldSpec("Qsqrt", D)


@dataclass(frozen=True)
class FElem:
    """a + b*sqrt(D), components canonical Fractions."""

    a: Fraction
    b: Fraction
    field: FieldSpec

    def __post_init__(self) -> None:
        if self.field.degree == 1 and self.b != 0:
            raise ValueError("irrational component over the rationals")

    def _check(self, other: FElem) -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __add__(self, other: FElem) -> FElem:
        if not isinstance(other, FElem):
            return NotImplemented
        self._check(other)
        return FElem(self.a + other.a, self.b + other.b, self.field)

    def __sub__(self, other: FElem) -> FElem:
        if not isinstance(other, FElem):
            return NotImplemented
        self._check(other)
        return FElem(self.a - other.a, self.b - other.b, self.field)

    def __neg__(self) -> FElem:
        return FElem(-self.a, -self.b, self.field)

    def __mul__(self, other: FElem) -> FElem:
        if not isinstance(other, FElem):
            return NotImplemented
        self._check(other)
        if self.field.degree == 1:
            return FElem(self.a * other.a, Fraction(0), self.field)
        d = self.field.D
        return FElem(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            self.field,
        )

    def inverse(self) -> FElem:
        if not self:
            raise ZeroDivisionError("division by zero field element")
        if self.field.degree == 1:
            return FElem(1 / self.a, Fraction(0), self.field)
        # multiply by the conjugate, divide by the norm a^2 - b^2 D
        norm = self.a * self.a - self.b * self.b * self.field.D
        return FElem(self.a / norm, -self.b / norm, self.field)

    def __truediv__(self, other: FElem) -> FElem:
        if not isinstance(other, FElem):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> FElem:  # a rational over x, as 1 / x in `rref`
        return self.field.elem(other) * self.inverse()

    def conj(self) -> FElem:
        """Galois conjugation a + b*sqrt(D) -> a - b*sqrt(D); fixes Q."""
        return FElem(self.a, -self.b, self.field)

    def __repr__(self) -> str:
        if self.field.degree == 1 or self.b == 0:
            return str(self.a)
        return f"({self.a}+{self.b}*sqrt{self.field.D})"


def restrict_scalars(v: Sequence[FElem]) -> tuple[Fraction, ...]:
    """Rational coordinates of a field vector: (a_i, b_i) interleaved.

    Identifies F^m with Q^(delta*m); Q-linear and injective.
    """
    out: list[Fraction] = []
    for x in v:
        out.append(x.a)
        if x.field.degree == 2:
            out.append(x.b)
    return tuple(out)


def scalar_matrix(lam: FElem) -> tuple[tuple[Fraction, ...], ...]:
    """Multiplication by lam on restricted coordinates, as a delta x delta matrix."""
    if lam.field.degree == 1:
        return ((lam.a,),)
    d = lam.field.D
    return ((lam.a, lam.b * d), (lam.b, lam.a))


def res_mul(x: Sequence, y: Sequence, fspec: FieldSpec) -> list:
    """res(x y) from res(x) = (a,) or (a, b) and res(y).  Bilinear, so it
    takes integer multiples of them (field numerators) as well."""
    return ([x[0] * y[0]] if len(x) == 1 else
            [x[0] * y[0] + fspec.D * x[1] * y[1], x[0] * y[1] + x[1] * y[0]])


def dot(u: Iterable[FElem], v: Iterable[FElem]) -> FElem:
    it = iter(v)
    total = None
    for x in u:
        y = next(it)
        total = x * y if total is None else total + x * y
    if total is None:
        raise ValueError("empty vectors")
    return total
