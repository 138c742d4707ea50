"""Numerical invariants of a finite arrangement and the closed rank formulas.

The incidence poset (which global class has a translate inside which) is
the closure of the covering relation recorded by the enumeration.  From
it and the classes this module derives nu, the Euler characteristic (a
chain count over the poset), the line/plane incidence count tilde_L1, the
exterior-power span ranks of the codimension-2 and -3 formulas, the
cohomology ranks D_p (codimension <= 3) and the K-group ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .linalg import kernel_top_wedge, wedge_span_rank
from .model import ProjectionData
from .orbits import DEFAULT_MAX_CLASSES, Arrangement, Engine, InfiniteArrangement, SingularClass


class InternalConsistencyError(Exception):
    """Two independent computations disagree: an orbit-counting bug."""


def binom(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


@dataclass
class InvariantReport:
    name: str
    m: int
    n: int
    d: int
    nu: Fraction
    finite: bool
    status: str  # finite | infinite | unsupported_codimension
    L: list[int] | None = None          # ascending: L_0 .. L_{m-1}
    tilde_L1: int | None = None
    e: int | None = None
    r: list[int] | None = None          # m = 2: r_1 .. r_{d+1}
    R: list[int] | None = None          # m = 3: R_1 .. R_{d+1}
    D: list[int] | None = None          # D_0 .. D_d
    H: list[int] | None = None          # rank H^0 .. rank H^d
    K: tuple[int, int] | None = None
    diagnostics: dict = dc_field(default_factory=dict)
    arrangement: Arrangement | None = None  # not serialized


def compute_nu(arrangement: Arrangement) -> int:
    """nu = rank Gamma / dim V of `arrangement.data`; checks integrality and
    the stabilizer rank law rank(stab) = nu * dim on every class.  Violations
    contradict a finite arrangement and are internal-consistency errors."""
    n, m = arrangement.data.n, arrangement.data.m
    if n % m != 0:
        raise InternalConsistencyError(
            f"finite arrangement but nu = {n}/{m} is not integral")
    nu = n // m
    for level, classes in arrangement.levels.items():
        for cls in classes:
            if cls.stabilizer.rank != nu * level:
                raise InternalConsistencyError(
                    f"stabilizer rank {cls.stabilizer.rank} != nu*dim = "
                    f"{nu * level} for class {cls.id} at level {level}")
    return nu


def incidence(arrangement: Arrangement) -> dict[tuple[int, int], list[SingularClass]]:
    """Maps (level, id) of every class alpha of the arrangement to the
    classes beta below it, once each: beta < alpha iff some Gamma-translate
    of beta lies in alpha.

    It is the closure of `arrangement.covers`, lowest level first, with no
    label or containment test: below(alpha) is the union over beta covered
    by alpha of {beta} and below(beta).  It is exact: a translate beta' of
    beta in rep(alpha) is an intersection of translated planes, one of
    which, H, meets alpha properly.  gamma' = alpha cap H is a candidate of
    the pair (alpha, class of H), so alpha covers its class, and beta' in
    gamma' puts beta at or (by induction) below it.  The translations that
    put beta in alpha form one coset of Stab(alpha): each such beta is one
    orbit class relative to alpha, with stabilizer Stab(beta)."""
    below: dict[tuple[int, int], dict] = {}
    for level in sorted(arrangement.levels):
        for alpha in arrangement.levels[level]:
            closure = below[(level, alpha.id)] = {}
            for beta in arrangement.covers.get((level, alpha.id), ()):
                closure[(beta.dim, beta.id)] = beta
                closure.update(below[(beta.dim, beta.id)])
    return {key: list(closure.values()) for key, closure in below.items()}


def euler_characteristic(arrangement: Arrangement, below: dict) -> int:
    """Euler characteristic by chain counting over the incidence poset
    `below` (from `incidence`): g = -1 on points, g(alpha) = -sum of
    g(beta) over beta < alpha, and e is the sum of g over all classes
    (negated for odd m)."""
    g: dict[tuple[int, int], int] = {}
    for level in sorted(arrangement.levels):
        for cls in arrangement.levels[level]:
            key = (level, cls.id)
            g[key] = -1 if level == 0 else -sum(g[(b.dim, b.id)] for b in below[key])
    total = sum(g.values())
    return total if arrangement.data.m % 2 == 0 else -total


def _wedge_quantities(arrangement: Arrangement, d: int):
    """(r_p, None) (m = 2) or (R_p, tilde_L1) (m = 3), for p = 1 .. d+1.
    Each stabilizer enters `wedge_span_rank` through its top wedge, taken
    once per report.  A hyperplane class's stabilizer is the kernel of its
    plane table's `cols`, so its top wedge is their `kernel_top_wedge`
    when they have rank delta (g != 0); every other stabilizer (the lines')
    gives its maximal minors.  A plane's lines are the classes it covers
    (`arrangement.covers`)."""
    data = arrangement.data
    tops = {c.stabilizer: kernel_top_wedge(c.plane.cols, data.n)
            for c in arrangement.levels[data.m - 1] if c.plane.g}
    if data.m == 2:
        stabs = [c.stabilizer for c in arrangement.levels[1]]
        return [wedge_span_rank(stabs, p + 1, tops) for p in range(1, d + 2)], None
    # m == 3: tilde_L1 counts (line, plane) incidences beyond L_1
    plane_stabs = [c.stabilizer for c in arrangement.levels[2]]
    line_stabs = [c.stabilizer for c in arrangement.levels[1]]
    per_plane_line_stabs = []
    tilde = -len(arrangement.levels[1])
    for alpha in arrangement.levels[2]:
        lines = arrangement.covers[(2, alpha.id)]
        tilde += len(lines)
        per_plane_line_stabs.append(list(dict.fromkeys(b.stabilizer for b in lines)))
    big_r = []
    for p in range(1, d + 2):
        t1 = wedge_span_rank(plane_stabs, p + 2, tops)
        t2 = wedge_span_rank(line_stabs, p + 1, tops)
        t3 = sum(wedge_span_rank(u, p + 1, tops) for u in per_plane_line_stabs)
        big_r.append(t1 - t2 + t3)
    return big_r, tilde


def rank_formulas(m: int, nu: int, d: int, e: int, L: list[int],
                  tilde_L1: int | None, wedges: list[int] | None) -> list[int]:
    """Closed formulas for D_0 .. D_d in codimension m <= 3, one for all m.

    The strata of dimension k enter with weight c_k: c_m = 1, c_{m-1} =
    L_{m-1} for m >= 2 and c_1 = tilde_L1 for m = 3.  With w_p the wedge
    ranks `wedges` (r_1..r_{d+1} for m = 2, R_1..R_{d+1} for m = 3, 0 past
    the list, and w = 0 for m = 1),

        D_0 = sum_k c_k sum_{j <= k} (-1)^j C(k nu, k - j) + e - w_1,
        D_p = sum_k c_k C(k nu, p + k) - w_p - w_{p+1}."""
    if not 1 <= m <= 3:
        raise ValueError(f"no rank formulas for m = {m}")
    c = dict(zip(range(m, 0, -1), (1, L[m - 1], tilde_L1)))
    wedges = () if m == 1 else wedges
    if None in c.values() or wedges is None:
        raise InternalConsistencyError(f"m = {m} rank formulas lack tilde_L1 or the wedge ranks")
    w = [0, *wedges, *[0] * (d + 2)]  # w[p] = w_p
    d0 = sum(ck * sum((-1) ** j * binom(k * nu, k - j) for j in range(k + 1))
             for k, ck in c.items())
    return [d0 + e - w[1]] + [sum(ck * binom(k * nu, p + k) for k, ck in c.items())
                              - w[p] - w[p + 1] for p in range(1, d + 1)]


def k_ranks(h_ranks: list[int], d: int) -> tuple[int, int]:
    """Ranks of K_0 and K_1 of the crossed product, by parity bookkeeping:
    rank K_i = sum of rank H^q over q = i - d (mod 2)."""
    k0 = sum(h for q, h in enumerate(h_ranks) if (q - d) % 2 == 0)
    k1 = sum(h for q, h in enumerate(h_ranks) if (q - d) % 2 == 1)
    return k0, k1


def analyze(data: ProjectionData, max_classes: int | None = None) -> InvariantReport:
    """Full pipeline on validated data: enumerate, count, evaluate formulas.

    The one function here that builds an `Engine`; every step after the
    enumeration reads only its `Arrangement`.  Returns an InvariantReport
    with status finite, infinite, or unsupported_codimension (m > 3:
    L-tables, nu and e still computed)."""
    n, m = data.n, data.m
    d = n - m
    report = InvariantReport(
        name=data.name, m=m, n=n, d=d, nu=Fraction(n, m), finite=False, status="infinite")
    try:
        arrangement = Engine(data, DEFAULT_MAX_CLASSES if max_classes is None
                             else max_classes).enumerate_arrangement()
    except InfiniteArrangement as exc:
        report.diagnostics = {
            "witness_level": exc.witness_level,
            "witness_pair": list(exc.witness_pair),
            "deficient_subgroup_rank": exc.deficient_subgroup_rank,
            "full_rank": exc.full_rank,
            "message": "L_0 is infinite: H^d(Z^d, C(X,Z)) is infinitely generated",
        }
        return report
    report.finite = True
    report.arrangement = arrangement
    nu = compute_nu(arrangement)
    report.nu = Fraction(nu)
    report.L = arrangement.counts()
    below = incidence(arrangement)
    report.e = euler_characteristic(arrangement, below)
    if m > 3:
        report.status = "unsupported_codimension"
        return report
    report.status = "finite"
    wedges = None
    if m > 1:
        wedges, report.tilde_L1 = _wedge_quantities(arrangement, d)
        setattr(report, "r" if m == 2 else "R", wedges)
    report.D = rank_formulas(m, nu, d, report.e, report.L, report.tilde_L1, wedges)
    alt_sum = sum((-1) ** p * dp for p, dp in enumerate(report.D))
    if alt_sum != report.e:
        raise InternalConsistencyError(
            f"Euler identity violated: sum (-1)^p D_p = {alt_sum} != e = {report.e}")
    report.H = list(reversed(report.D))
    report.K = k_ranks(report.H, d)
    return report
