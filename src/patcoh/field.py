"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

Elements are pairs (a, b) of rationals representing a + b*sqrt(D).  The
rational field itself is refused: Gamma needs n > m generators that are
independent over Q, and n > m vectors of Q^m never are.  The field's rules
are stated once, on restricted coordinates or their integer numerators:
`res_mul` is the product and `res_adjugate` the inverse, and `FElem`'s
product and inverse call them.  No floating point is used anywhere:
field coordinates are Fractions, and the engine's hot paths (orbit labels,
integer kernels, wedge ranks) clear denominators and work on plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

# the largest D accepted: squarefreeness is checked by trial division up to
# sqrt(D), so this bounds that check at about 46,000 divisions
MAX_D = 2 ** 31


def _is_squarefree(d: int) -> bool:
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class FieldSpec:
    """Coordinate field: a real quadratic field Q(sqrt(D)), equal to
    another and hashed by its one attribute D."""

    __slots__ = ("D",)

    def __init__(self, D: int) -> None:
        if D is not None and D > MAX_D:
            raise ValueError(f"D must be at most 2**31 = {MAX_D}, got {D}")
        if D is None or not _is_squarefree(D):
            raise ValueError(f"D must be a squarefree integer >= 2, got {D}")
        self.D = D

    def __eq__(self, other) -> bool:
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self.D == other.D

    def __hash__(self) -> int:
        return hash((self.D,))

    @property
    def degree(self) -> int:
        return 2

    def elem(self, a, b=0) -> FElem:
        return FElem(Fraction(a), Fraction(b), self)

    @property
    def zero(self) -> FElem:
        return self.elem(0)

    @property
    def one(self) -> FElem:
        return self.elem(1)

    def __repr__(self) -> str:
        return f"Q(sqrt {self.D})"


def quadratic(D: int) -> FieldSpec:
    return FieldSpec(D)


class FElem:
    """a + b*sqrt(D), components canonical Fractions a and b over its
    `field`; equal to another and hashed by (a, b, field).  Not a tuple,
    whose + and * would be concatenation and repetition."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a: Fraction, b: Fraction, field: FieldSpec) -> None:
        self.a, self.b, self.field = a, b, field

    def __eq__(self, other) -> bool:
        if other.__class__ is not FElem:
            return NotImplemented
        return (self.a, self.b, self.field) == (other.a, other.b, other.field)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.field))

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
        return FElem(*res_mul((self.a, self.b), (other.a, other.b), self.field), self.field)

    def inverse(self) -> FElem:
        if not self:
            raise ZeroDivisionError("division by zero field element")
        (a, b), norm = res_adjugate((self.a, self.b), self.field)
        return FElem(a / norm, b / norm, self.field)

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
        if self.b == 0:
            return str(self.a)
        return f"({self.a}+{self.b}*sqrt{self.field.D})"


def restrict_scalars(v: Sequence[FElem]) -> tuple[Fraction, ...]:
    """Rational coordinates of a field vector: (a_i, b_i) interleaved.

    Identifies F^m with Q^(delta*m); Q-linear and injective.
    """
    return tuple(c for x in v for c in (x.a, x.b))


def res_mul(x: Sequence, y: Sequence, fspec: FieldSpec) -> list:
    """res(x y) = (a c + D b e, a e + b c) from res(x) = (a, b) and res(y) =
    (c, e): the field's one product rule.  Bilinear, so it takes integer
    multiples of them (field numerators) as well."""
    return [x[0] * y[0] + fspec.D * x[1] * y[1], x[0] * y[1] + x[1] * y[0]]


def res_adjugate(x: Sequence, fspec: FieldSpec) -> tuple[list, object]:
    """(adj, norm) with res_mul(x, adj) = (norm, 0), so 1/x = adj / norm for
    x != 0: the conjugate ([a, -b], a^2 - D b^2).  A closed form, like
    `res_mul`; numerators in, numerators out."""
    return [x[0], -x[1]], x[0] * x[0] - fspec.D * x[1] * x[1]


def theta_powers(fspec: FieldSpec) -> list[list[int]]:
    """res(theta^l), l < delta: res_mul(res(theta^l), res(x)) = res(theta^l x)."""
    return [[int(i == l) for i in range(fspec.degree)] for l in range(fspec.degree)]


def dot(u: Iterable[FElem], v: Iterable[FElem]) -> FElem:
    it = iter(v)
    total = None
    for x in u:
        y = next(it)
        total = x * y if total is None else total + x * y
    if total is None:
        raise ValueError("empty vectors")
    return total
