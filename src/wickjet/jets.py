"""Jet-level Kahler geometry at a marked point.

Every jet here is a classical ``WickSeries`` (no h-powers) whose ``trunc`` is
the jet order: the coefficient of ``y^I yb^J`` is the Taylor coefficient of
``z^I zbar^J``.  ``k_normalize`` brings a real potential into the normal form
``|z|^2 + sum a_{JK} z^J zbar^K`` (both ``|J| >= 2`` and ``|K| >= 2``) through
a holomorphic coordinate change, computed degree by degree, plus a
holomorphic frame rescale read off at the end; both are holomorphic series.
The volume-log jets are the jets of ``log det(d^2 varphi / dz dzbar)``,
normalized so the flat potential yields exactly zero; together they assemble
the weight series consumed by the integration pipeline.  They come from
Jacobi's identity ``log det M = sum_k (-1)^(k+1) tr(X^k) / k`` with
``X = M - 1``: the metric is the identity at the point, as in every normal
form.  The sum stops at ``k = order - 2``, so their cost is polynomial in dim
(``order * dim^3`` series products) rather than a ``dim!`` determinant.

All arithmetic is exact.  The quadratic diagonalization therefore requires
the pivots of the Hermitian (1,1) block to be perfect rational squares; the
bundled random generator only produces such inputs.
"""

from __future__ import annotations

import random as _random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, isqrt, lcm

from .coefficients import ComplexRational, random_coefficient, random_rational
from .errors import PreconditionError, SolveError
from .integrals import WeightSeries
from .series import (WickSeries, accumulate, linear_combination, mi_factorial, mi_zero,
                     pack, read_records, total_degree, unpack)

__all__ = [
    "PotentialJets",
    "k_normalize",
    "apply_normalization",
    "volume_log_jets",
    "weight_series",
    "flat_potential",
    "fubini_study_potential",
    "random_real_analytic_potential",
]


# ---------------------------------------------------------------------------
# series plumbing


def _unit(dim: int, i: int) -> tuple:
    return (0,) * i + (1,) + (0,) * (dim - 1 - i)


def _is_classical(series) -> bool:
    return isinstance(series, WickSeries) and series.h_powers() <= {0}


@cache
def _generator_keys(dim: int) -> tuple:
    """The keys of y_i and of yb_i, each a list over i; the key of a product
    of terms is the sum of theirs (``series.pack``).  Kept per dim: the
    identity metric test reads them up to six times per normalization."""
    zero = mi_zero(dim)
    units = [_unit(dim, i) for i in range(dim)]
    return [pack(dim, 0, e, zero) for e in units], [pack(dim, 0, zero, e) for e in units]


def _norm_squared(dim: int, trunc: int) -> WickSeries:
    """The flat potential |z|^2 = sum_i y_i yb_i."""
    return WickSeries.zero(dim, trunc)._build(
        {y + yb: (1, 0) for y, yb in zip(*_generator_keys(dim))}, 1)


def _identity_coords(dim: int, trunc: int) -> list:
    """The coordinates y_i, one series each."""
    zero = WickSeries.zero(dim, trunc)
    return [zero._build({y: (1, 0)}, 1) for y in _generator_keys(dim)[0]]


def _is_identity_change(subs: list, dim: int, trunc: int) -> bool:
    """Each subs[i] is the single term y_i with coefficient 1."""
    return len(subs) == dim and all(
        (s.dim, s.trunc, s.den, s.num) == (dim, trunc, 1, {y: (1, 0)})
        for s, y in zip(subs, _generator_keys(dim)[0]))


def _power(table: list, p: int) -> WickSeries:
    """``table[p]`` of the powers ``[1, u, u^2, ...]`` of ``u = table[1]``, grown on demand."""
    while len(table) <= p:
        table.append(table[-1] * table[1])
    return table[p]


def _substitute(series: list, subs: list) -> list:
    """Formal composition of each series: replace z_i by subs[i] (and zbar_i by its conjugate).

    Write U^K for the product of the subs[i]^(K_i).  The series share the
    powers of each subs[i], built on demand, and the monomials U^K, each
    built once from a smaller one and one power; conj(U^J) is the
    ``conjugate()`` of U^J.  A series is grouped by holomorphic exponent I,
    so its image ``sum_I U^I (sum_J c_IJ conj(U^J))`` costs one product per
    distinct nonzero I.  Identity coordinates return the series themselves,
    after the same checks.
    """
    dim, trunc = series[0].dim, series[0].trunc
    constant = pack(dim, 0, mi_zero(dim), mi_zero(dim))
    if any(constant in s.num for s in subs):
        raise PreconditionError("coordinate changes must fix the marked point")
    if not all(_is_classical(s) for s in series):
        raise PreconditionError("substitution is defined for classical jets only")
    if _is_identity_change(subs, dim, trunc):
        return list(series)
    unit = WickSeries.unit(dim, trunc)
    tables = [[unit, s] for s in subs]
    zero = mi_zero(dim)
    holomorphic = {zero: unit}  # U^K by the exponents K
    conjugates = {}

    def monomial(k: tuple) -> WickSeries:
        """U^K from U^K' times one power, K' being K less its last nonzero exponent."""
        if k not in holomorphic:
            i = max(i for i, p in enumerate(k) if p)
            power = _power(tables[i], k[i])
            rest = k[:i] + zero[i:]
            holomorphic[k] = power * monomial(rest) if any(rest) else power
        return holomorphic[k]

    def conjugate(j: tuple) -> WickSeries:
        if j not in conjugates:
            conjugates[j] = monomial(j).conjugate()
        return conjugates[j]

    images = []
    for s in series:
        groups: dict = {}  # I -> [(J, coefficient numerator)]
        for key, pair in s.num.items():
            _, i, j = unpack(dim, key)
            groups.setdefault(i, []).append((j, pair))
        parts = []  # image = sum over parts / s.den
        for i, row in groups.items():
            bars = [(conjugate(j), pair) for j, pair in row]
            if i == zero:
                parts += bars
            elif len(row) == 1 and row[0][0] == zero:  # a pure holomorphic term
                parts.append((monomial(i), row[0][1]))
            else:
                parts.append((monomial(i) * linear_combination(bars), (1, 0)))
        images.append(linear_combination(parts, s.den) if parts else s)
    return images


def _is_normal_form(varphi: WickSeries) -> bool:
    """|z|^2 plus jets of bidegree at least (2, 2): the (1,1) block is the
    identity and every other term has |I| >= 2 and |J| >= 2."""
    return _has_identity_metric(varphi) and all(
        i >= 2 and j >= 2 or i == j == 1 for _, i, j in varphi.bidegrees().values())


# ---------------------------------------------------------------------------
# domain types


class PotentialJets:
    """Real potential jets at a marked point.

    ``varphi`` is a classical ``WickSeries`` whose ``trunc`` is the jet order.
    With ``normalized=True`` the normal form is verified at construction, so
    the flag can be trusted downstream.  ``psi`` is then the volume-log jets
    (``trunc = max(order - 2, 0)``), computed on the first read and kept, and
    None otherwise; it is derived data and is excluded from equality.  A
    generator that knows them in closed form passes them as ``psi``, which
    is trusted.
    """

    __slots__ = ("varphi", "normalized", "_psi")

    def __init__(self, varphi: WickSeries, normalized: bool = False,
                 psi: WickSeries | None = None):
        if not _is_classical(varphi):
            raise PreconditionError(
                "potential jets must be a WickSeries without h-powers")
        if varphi.conjugate() != varphi:
            raise PreconditionError(
                "potential jets must be real: the series differs from its conjugate")
        if normalized and not _is_normal_form(varphi):
            raise PreconditionError(
                "normalized flag set, but the jets are not in normal form")
        object.__setattr__(self, "varphi", varphi)
        object.__setattr__(self, "normalized", bool(normalized))
        object.__setattr__(self, "_psi", psi)

    @classmethod
    def from_records(cls, dim: int, order: int, records) -> "PotentialJets":
        """Raw jets from ``{"I", "J", "re", "im"}`` records; duplicates add up.

        A jet above the order window raises instead of being truncated away,
        and so does a jet with a nonzero ``"k2"``: potentials carry no h.
        """
        num, den = read_records(({"k2": 0, **rec} for rec in records), dim)
        for key in num:
            k2, I, J = unpack(dim, key)
            if k2:
                raise PreconditionError(
                    f"potential jet {(I, J)!r} has k2={k2}; potentials carry no h")
            if sum(I) + sum(J) > order:
                raise PreconditionError(
                    f"potential jet {(I, J)!r} exceeds the order-{order} window")
        return cls(WickSeries(dim, order)._build(num, den))

    @property
    def psi(self) -> WickSeries | None:
        if self._psi is None and self.normalized:
            object.__setattr__(self, "_psi", volume_log_jets(self))
        return self._psi

    @property
    def dim(self) -> int:
        return self.varphi.dim

    @property
    def order(self) -> int:
        return self.varphi.trunc

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PotentialJets is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PotentialJets):
            return NotImplemented
        return (self.varphi, self.normalized) == (other.varphi, other.normalized)

    def __hash__(self) -> int:
        return hash((self.varphi, self.normalized))

    def __repr__(self) -> str:
        return (f"PotentialJets(dim={self.dim}, order={self.order}, "
                f"terms={len(self.varphi)}, normalized={self.normalized})")


# ---------------------------------------------------------------------------
# normalization


def _one_one_matrix(series: WickSeries, dim: int) -> list:
    """Hermitian matrix M with M[i][j] = coefficient of z_j zbar_i."""
    units = [_unit(dim, i) for i in range(dim)]
    return [[series.coefficient(0, y, yb) for y in units] for yb in units]


def _has_identity_metric(series: WickSeries) -> bool:
    """The (1,1) block is the identity, read on the keys: ``num`` holds
    ``(den, 0)`` for each z_i zbar_i and nothing for z_j zbar_i with j != i."""
    ys, ybs = _generator_keys(series.dim)
    get, one = series.num.get, (series.den, 0)
    return all(get(y + yb) == (one if i == j else None)
               for i, y in enumerate(ys) for j, yb in enumerate(ybs))


def _diagonalizing_change(matrix: list, dim: int) -> list:
    """B with B^dagger M B = Id.

    Symmetric elimination: column operations clear each row of M right of
    its pivot and act alike on B, which starts as the identity; then column
    j of B is scaled by 1/sqrt(pivot j).  B is upper triangular with a
    positive diagonal, which makes it unique.  Every pivot is checked for
    positive definiteness before any is checked for a rational square root.
    """
    m = [list(row) for row in matrix]
    b = [[ComplexRational(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    pivots = []
    for j in range(dim):
        pivot = m[j][j]
        if pivot.im or pivot.re <= 0:
            raise PreconditionError("the (1,1) part is not positive definite")
        pivots.append(pivot.re)
        for k in range(j + 1, dim):
            factor = m[j][k] / pivot
            if factor:
                for row in (*m, *b):
                    row[k] = row[k] - factor * row[j]
    for j, pivot in enumerate(pivots):
        rn, rd = isqrt(pivot.numerator), isqrt(pivot.denominator)
        if (rn * rn, rd * rd) != (pivot.numerator, pivot.denominator):
            raise PreconditionError(
                f"quadratic pivot {pivot} is not a perfect rational square; "
                "the (1,1) part cannot be diagonalized exactly")
        for row in b:
            row[j] = row[j] * Fraction(rd, rn)
    return b


def k_normalize(raw: PotentialJets):
    """Normal-form coordinates and frame at the marked point.

    Returns ``(normalized, coord_change, frame_change)``: the normalized
    potential, a tuple of holomorphic series expressing the original
    coordinates in the new ones, and the holomorphic frame series G with
    ``raw o coord_change - G - conj(G) == normalized``.  The coordinate
    change is found degree by degree from the mixed terms; a degree without
    them builds none.  A holomorphic change keeps pure (anti)holomorphic
    terms pure, so G is read off once at the end: the holomorphic part of
    the substituted potential, with its real constant halved.  A potential
    left unchanged keeps its attached volume-log jets, which depend on it alone.
    """
    if raw.order < 2:
        raise PreconditionError("normalization needs jets at least to order 2")
    dim, order = raw.dim, raw.order
    zero = mi_zero(dim)
    current = raw.varphi
    identity = coords = _identity_coords(dim, order)
    if not _has_identity_metric(current):
        change = _diagonalizing_change(_one_one_matrix(current, dim), dim)
        current, *coords = _substitute([current, *coords], [
            WickSeries(dim, order, {(0, _unit(dim, j), zero): change[i][j] for j in range(dim)})
            for i in range(dim)])
    for d in range(3, order + 1):
        # the terms y^I yb_j of degree d, as -y^I (current is classical)
        part = current.degree_slice(d)
        rows = [{} for _ in range(dim)]
        for key, (_, _, j) in part.bidegrees().items():
            if j == 1:
                k2, I, J = unpack(dim, key)
                a, b = part.num[key]
                rows[J.index(1)][pack(dim, k2, I, zero)] = (-a, -b)
        if any(rows):
            current, *coords = _substitute([current, *coords], [
                unit + part._build(row, part.den) if row else unit
                for unit, row in zip(identity, rows)])
    # later changes are the identity to first order, so the (1,1) block
    # stays as the degree-2 round left it
    if not _has_identity_metric(current):
        raise SolveError("quadratic diagonalization failed")
    holomorphic = current.holomorphic_part()
    frame = holomorphic - holomorphic.coefficient(0) / 2
    normalized = linear_combination(
        [(current, (1, 0)), (frame, (-1, 0)), (frame.conjugate(), (-1, 0))])
    psi = raw._psi if normalized == raw.varphi else None
    return PotentialJets(normalized, normalized=True, psi=psi), tuple(coords), frame


def apply_normalization(raw: PotentialJets, coord_change, frame_change) -> PotentialJets:
    """Replay a coordinate/frame change on raw jets (round-trip check)."""
    dim, order = raw.dim, raw.order
    if len(coord_change) != dim:
        raise PreconditionError("need one coordinate series per variable")
    for s in (*coord_change, frame_change):
        if not (_is_classical(s) and s.is_holomorphic()
                and (s.dim, s.trunc) == (dim, order)):
            raise PreconditionError(
                "coordinate and frame changes must be holomorphic series "
                f"without h-powers, of dim {dim} and trunc {order}")
    result = linear_combination([(_substitute([raw.varphi], coord_change)[0], (1, 0)),
                                 (frame_change, (-1, 0)), (frame_change.conjugate(), (-1, 0))])
    return PotentialJets(result, normalized=_is_normal_form(result))


# ---------------------------------------------------------------------------
# volume-log jets and derived data


def volume_log_jets(p: PotentialJets) -> WickSeries:
    """Jets of the log-determinant of the metric, zero for the flat potential.

    This is log det M by Jacobi's identity, M = (d^2 varphi / dz_i dzbar_j).

    The metric must be the identity at the point, as in every normal form;
    then X = M - 1 and log det M is sum_k (-1)^(k+1) tr(X^k) / k.  X has no
    constant term, so X^k vanishes once k times its least degree passes
    order - 2 (a normal form's X starts in degree 2).  Full powers are formed
    up to half that k; later traces take only the diagonal of a product of
    two of them.
    """
    varphi = p.varphi
    dim = varphi.dim
    if not _has_identity_metric(varphi):
        raise PreconditionError(
            "volume-log jets need the identity metric at the point; "
            "normalize the potential first")
    r2 = max(varphi.trunc - 2, 0)
    ys, ybs = _generator_keys(dim)
    # d_i dbar_j lowers y_i and yb_j by one each: the key less that of y_i yb_j
    lowering = [[y + yb for yb in ybs] for y in ys]
    rest = [[{} for _ in range(dim)] for _ in range(dim)]
    for key, (a, b) in varphi.num.items():
        k2, I, J = unpack(dim, key)
        if not 2 < total_degree(k2, I, J) <= r2 + 2:  # M(0) = 1, or above the window
            continue
        for i, row in enumerate(lowering):
            if I[i]:
                for j, step in enumerate(row):
                    if J[j]:
                        scalar = I[i] * J[j]
                        rest[i][j][key - step] = (a * scalar, b * scalar)
    zero = WickSeries.zero(dim, r2)
    # X and its powers as rows {l: entry} that hold only the nonzero entries
    x = [{j: zero._build(terms, varphi.den) for j, terms in enumerate(row) if terms}
         for row in rest]

    def products(row: dict, right: list, j: int) -> list:
        """The nonzero products whose sum is entry j of ``row`` times ``right``."""
        return [s * right[l][j] for l, s in row.items() if j in right[l]]

    def entry(row: dict, j: int) -> WickSeries | None:  # None if no product reaches it
        parts = [(s, (1, 0)) for s in products(row, x, j)]
        return linear_combination(parts) if parts else None

    # X^k has degree at least k times the least degree of X
    lowest = min((s.min_degree() for row in x for s in row.values()), default=r2 + 1)
    last = r2 // lowest
    # full powers up to X^half; tr(X^k) = tr(X^half X^(k - half)) beyond
    half = (last + 1) // 2
    powers = [x]
    while len(powers) < half:
        powers.append([{j: s for j in range(dim) if (s := entry(row, j))}
                       for row in powers[-1]])
    den = lcm(*range(1, last + 1))
    parts = []  # the series summing to each tr(X^k), weighted by (-1)^(k+1) / k
    for k in range(1, last + 1):
        trace = [row.get(i) for i, row in enumerate(powers[k - 1])] if k <= half else [
            s for i in range(dim)
            for s in products(powers[half - 1][i], powers[k - half - 1], i)]
        parts += [(s, ((-1) ** (k + 1) * den // k, 0)) for s in trace if s]
    return linear_combination(parts, den) if parts else zero


def weight_series(p: PotentialJets, trunc: int) -> WeightSeries:
    """Assemble the integration weight of a normalized potential.

    The body is ``|y|^2 - varphi + h * psi`` transcribed to the Wick algebra:
    the quadratic part cancels against the Gaussian reference, the remaining
    potential jets enter with a minus sign, and the volume-log jets enter at
    one h-power up.
    """
    if not p.normalized:
        raise PreconditionError("weight_series needs a normalized potential")
    if p.order < trunc:
        raise PreconditionError(
            f"potential order {p.order} is below the requested trunc {trunc}")
    weight = WeightSeries(linear_combination([
        (_norm_squared(p.dim, trunc), (1, 0)), (p.varphi.retruncate(trunc), (-1, 0)),
        (p.psi.retruncate(trunc).hbar_shift(2), (1, 0))]))
    if not (weight.is_real and weight.toeplitz_admissible and weight.refined):
        raise SolveError("normalized potential produced an inadmissible weight")
    return weight


# ---------------------------------------------------------------------------
# built-in potentials


def flat_potential(dim: int, order: int) -> PotentialJets:
    """The flat potential |z|^2; its volume-log jets vanish identically."""
    if order < 2:
        raise PreconditionError("the flat potential needs order >= 2")
    return PotentialJets(_norm_squared(dim, order), normalized=True)


def fubini_study_potential(dim: int, order: int) -> PotentialJets:
    """Jets of log(1 + |z|^2); already in normal form.

    Written from the closed form: log(1 + |y|^2) is the sum over 0 < |I| <=
    order/2 of (-1)^(|I|+1) (|I|-1)!/I! y^I yb^I, the I enumerated by total
    degree.  The metric is Kahler-Einstein, so the volume-log jets are
    -(dim+1) times the potential, attached at construction.
    """
    if order < 2:
        raise PreconditionError("the Fubini-Study potential needs order >= 2")
    top = order // 2
    den = lcm(*range(1, top + 1))
    num = {}
    for n in range(1, top + 1):
        # (n-1)!/I! is the multinomial n!/I! over n
        weight = (den // n) * (1 if n % 2 else -1) * factorial(n)
        for bars in combinations(range(n + dim - 1), dim - 1):  # stars and bars
            index = tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, n + dim - 1)))
            num[pack(dim, 0, index, index)] = (weight // mi_factorial(index), 0)
    varphi = WickSeries.zero(dim, order)._build(num, den)
    return PotentialJets(varphi, normalized=True,
                         psi=varphi.retruncate(order - 2).scale(-(dim + 1)))


def random_real_analytic_potential(seed: int, dim: int,
                                   order: int) -> PotentialJets:
    """A random raw potential whose normalization succeeds in exact arithmetic.

    The (1,1) block is built as L diag(r^2) L^dagger with unit-triangular L
    and nonzero rational r, so the diagonalization pivots are perfect
    squares.  Constant, linear, purely holomorphic and mixed higher jets are
    thrown in and symmetrized to keep the potential real.
    """
    if order < 2:
        raise PreconditionError("random potentials need order >= 2")
    rng = _random.Random(seed)
    jets = []  # ((0, I, J), coefficient) pairs, summed at the end
    lower = [[ComplexRational(1 if i == j else 0) for j in range(dim)]
             for i in range(dim)]
    for i in range(dim):
        for j in range(i):
            if rng.random() < 0.7:
                lower[i][j] = ComplexRational(random_rational(rng, 2, 2),
                                              random_rational(rng, 2, 2))
    roots = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = ComplexRational()
            for k in range(dim):
                acc = acc + lower[i][k] * lower[j][k].conjugate() * (roots[k] ** 2)
            if acc:
                jets.append(((0, _unit(dim, j), _unit(dim, i)), acc))

    zero = mi_zero(dim)
    jets.append(((0, zero, zero), random_rational(rng, 4, 3)))
    for i in range(dim):
        if rng.random() < 0.8:
            c = random_coefficient(rng, 4, 3, 0.6)
            ei = _unit(dim, i)
            jets += [((0, ei, zero), c), ((0, zero, ei), c.conjugate())]

    half = ComplexRational(Fraction(1, 2))
    for _ in range(6):
        for _attempt in range(40):
            I = tuple(rng.randint(0, 3) for _ in range(dim))
            J = tuple(rng.randint(0, 3) for _ in range(dim))
            total = sum(I) + sum(J)
            if total < 2 or total > order or (sum(I) == 1 and sum(J) == 1):
                continue
            c = random_coefficient(rng, 4, 3, 0.6) * half
            jets += [((0, I, J), c), ((0, J, I), c.conjugate())]
            break

    return PotentialJets(WickSeries(dim, order, accumulate(jets)))

