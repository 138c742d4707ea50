import random
from fractions import Fraction

import pytest

from patcoh.field import MAX_D, quadratic, res_adjugate, res_mul, restrict_scalars
from reference import scalar_matrix

F5 = quadratic(5)
TAU = F5.elem("1/2", "1/2")


def rand_elem(field, rng, rational=False):
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    b = 0 if rational else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return field.elem(a, b)


def test_tau_squared_is_tau_plus_one():
    assert TAU * TAU == TAU + F5.one


def test_inverse_of_tau_is_tau_minus_one():
    assert F5.one / TAU == TAU - F5.one
    assert F5.one / TAU == F5.elem("-1/2", "1/2")


def test_rational_addition():
    # the rationals are the elements with b = 0 of every field
    assert F5.elem("1/3") + F5.elem("1/6") == F5.elem("1/2")
    assert F5.elem("2/3") * F5.elem("3/4") == F5.elem("1/2")
    assert F5.one / F5.elem(-4) == F5.elem("-1/4")


def test_conj_of_tau():
    assert TAU.conj() == F5.elem("1/2", "-1/2")


def test_conj_is_involution():
    x = F5.elem("2/7", "-3/5")
    assert x.conj().conj() == x


def test_conj_fixes_rationals():
    assert F5.elem(5).conj() == F5.elem(5)


def test_conj_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(40):
        x, y = rand_elem(F5, rng), rand_elem(F5, rng)
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()


def test_field_axioms_random():
    # over Q(sqrt 5), and on its rational elements (b = 0), which stay rational
    rng = random.Random(7)
    for rational in (True, False):
        for _ in range(40):
            x, y, z = (rand_elem(F5, rng, rational) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x:
                assert x * x.inverse() == F5.one
            if rational:
                assert not (x * y).b and not (x - y).b and (not x or not x.inverse().b)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F5.one / F5.zero


def test_field_mismatch():
    with pytest.raises(ValueError):
        F5.one + quadratic(2).one


def test_non_squarefree_discriminant_rejected():
    with pytest.raises(ValueError):
        quadratic(12)
    with pytest.raises(ValueError):
        quadratic(1)


def test_discriminant_bound():
    # the squarefree check trial-divides up to sqrt(D), so D is bounded:
    # the prime 2**31 - 1 is a field, and anything above MAX_D is refused
    # before any division
    assert quadratic(2 ** 31 - 1).degree == 2
    for d in (MAX_D + 1, 1000000000000000003, 10 ** 400 + 1):
        with pytest.raises(ValueError, match="at most"):
            quadratic(d)


def test_restrict_scalars_examples():
    assert restrict_scalars((TAU,)) == (Fraction(1, 2), Fraction(1, 2))
    sigma = TAU.conj()
    assert restrict_scalars((F5.one, sigma, F5.zero)) == (
        Fraction(1), Fraction(0), Fraction(1, 2), Fraction(-1, 2),
        Fraction(0), Fraction(0))
    assert restrict_scalars((F5.elem("1/3"), F5.elem(2))) == (
        Fraction(1, 3), Fraction(0), Fraction(2), Fraction(0))


def test_restrict_scalars_q_linearity():
    rng = random.Random(11)
    for _ in range(25):
        lam = rand_elem(F5, rng)
        x = [rand_elem(F5, rng) for _ in range(3)]
        y = [rand_elem(F5, rng) for _ in range(3)]
        lhs = restrict_scalars([a + lam * b for a, b in zip(x, y)])
        mat = scalar_matrix(lam)
        ry = restrict_scalars(y)
        rx = restrict_scalars(x)
        rhs = []
        for i in range(3):
            pair = ry[2 * i: 2 * i + 2]
            for row in mat:
                rhs.append(sum(r * p for r, p in zip(row, pair)))
        assert list(lhs) == [a + b for a, b in zip(rx, rhs)]


@pytest.mark.parametrize("field", [quadratic(2), quadratic(3), F5],
                         ids=["Qsqrt2", "Qsqrt3", "Qsqrt5"])
def test_res_adjugate_inverts_by_res_mul(field):
    # res_mul(x, adj) = (norm, 0) on field numerators and on rational
    # coordinates, negative norms included; FElem.inverse is adj / norm and
    # round-trips
    rng = random.Random(f"adjugate:{field!r}")
    xs = [[rng.randint(-30, 30) for _ in range(2)] for _ in range(40)]
    xs += [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2)]
           for _ in range(40)]
    xs += [[1, -1], [-3, 2]]  # 1 - sqrt(D), -3 + 2 sqrt(D)
    norms = set()
    for x in xs:
        if not any(x):
            continue
        adj, norm = res_adjugate(x, field)
        assert res_mul(x, adj, field) == [norm, 0]
        norms.add(norm > 0)
        elem = field.elem(*x)
        inv = elem.inverse()
        assert restrict_scalars((inv,)) == tuple(Fraction(a, 1) / norm for a in adj)
        assert elem * inv == field.one and inv.inverse() == elem
    assert norms == {True, False}


def test_res_adjugate_closed_forms():
    # the conjugate over its norm: 1 - sqrt(2) has norm -1 and inverse
    # -1 - sqrt(2), and a rational a has adjugate (a, 0) over a^2
    q2 = quadratic(2)
    assert res_adjugate([3, 0], q2) == ([3, 0], 9)
    assert res_adjugate([1, -1], q2) == ([1, 1], -1)
    half = Fraction(1, 2)
    assert res_adjugate([half, half], F5) == ([half, -half], -1)  # tau
    assert q2.elem(1, -1).inverse() == q2.elem(-1, -1)
