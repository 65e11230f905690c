"""Jet-level Kahler geometry at a marked point.

Every jet here is a classical ``WickSeries`` (no h-powers) whose ``trunc`` is
the jet order: the coefficient of ``y^I yb^J`` is the Taylor coefficient of
``z^I zbar^J``.  ``k_normalize`` brings a real potential into the normal form
``|z|^2 + sum a_{JK} z^J zbar^K`` (both ``|J| >= 2`` and ``|K| >= 2``) through
a holomorphic frame rescale plus a holomorphic coordinate change, computed
degree by degree; both changes are holomorphic series.  The volume-log jets
are the jets of ``log det(d^2 varphi / dz dzbar)``, normalized so the flat
potential yields exactly zero; together they assemble the weight series
consumed by the integration pipeline.  They come from Jacobi's identity
``log det M = sum_k (-1)^(k+1) tr(X^k) / k`` with ``X = M(0)^-1 (M - M(0))``,
which stops at ``k = order - 2``, so their cost is polynomial in dim
(``order * dim^3`` series products) rather than a ``dim!`` determinant.

All arithmetic is exact.  The quadratic diagonalization therefore requires
the pivots of the Hermitian (1,1) block to be perfect rational squares; the
bundled random generator only produces such inputs.
"""

from __future__ import annotations

import random as _random
from fractions import Fraction
from math import isqrt
from operator import mul

from .coefficients import ComplexRational, random_coefficient, random_rational
from .errors import PreconditionError, SolveError
from .integrals import WeightSeries
from .series import WickSeries, accumulate, mi_sub, mi_zero, power_terms, read_record

__all__ = [
    "PotentialJets",
    "CurvatureTensor",
    "k_normalize",
    "apply_normalization",
    "volume_log_jets",
    "weight_series",
    "curvature",
    "flat_potential",
    "fubini_study_potential",
    "random_real_analytic_potential",
]


# ---------------------------------------------------------------------------
# series plumbing


def _unit(dim: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(dim))


def _is_classical(series) -> bool:
    return isinstance(series, WickSeries) and not any(k2 for k2, _, _ in series.num)


def _norm_squared(dim: int, trunc: int) -> WickSeries:
    """The flat potential |z|^2 = sum_i y_i yb_i."""
    return WickSeries(dim, trunc, {(0, _unit(dim, i), _unit(dim, i)): 1
                                   for i in range(dim)})


def _identity_coords(dim: int, trunc: int) -> list:
    zero = mi_zero(dim)
    return [WickSeries.monomial(dim, trunc, 1, 0, _unit(dim, i), zero)
            for i in range(dim)]


def _power_table(s: WickSeries, top: int) -> list:
    table = [WickSeries.unit(s.dim, s.trunc)]
    for _ in range(top):
        table.append(table[-1] * s)
    return table


def _substitute(series: WickSeries, subs: list) -> WickSeries:
    """Formal composition: replace z_i by subs[i] (and zbar_i by its conjugate)."""
    dim, trunc = series.dim, series.trunc
    zero = mi_zero(dim)
    for s in subs:
        if (0, zero, zero) in s.num:
            raise PreconditionError("coordinate changes must fix the marked point")
    conj = [s.conjugate() for s in subs]
    max_i = [0] * dim
    max_j = [0] * dim
    for (k2, I, J) in series.num:
        if k2:
            raise PreconditionError("substitution is defined for classical jets only")
        for i in range(dim):
            max_i[i] = max(max_i[i], I[i])
            max_j[i] = max(max_j[i], J[i])
    pows = [_power_table(subs[i], max_i[i]) for i in range(dim)]
    cpows = [_power_table(conj[i], max_j[i]) for i in range(dim)]
    unit = WickSeries.unit(dim, trunc)
    groups: dict = {}  # images scaled by their term's numerators, by denominator
    for (_, I, J), (a, b) in series.num.items():
        acc = unit
        for i in range(dim):
            for table, p in ((pows[i], I[i]), (cpows[i], J[i])):
                if p:
                    acc = table[p] if acc is unit else acc * table[p]
        out = groups.setdefault(acc.den, {})
        get = out.get
        for key, (c, d) in acc.num.items():
            re, im = a * c - b * d, a * d + b * c
            prev = get(key)
            out[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return sum((unit._build(out, series.den * den) for den, out in groups.items()),
               WickSeries.zero(dim, trunc))


def _is_normal_form(varphi: WickSeries) -> bool:
    """|z|^2 plus jets of bidegree at least (2, 2)."""
    rest = varphi - _norm_squared(varphi.dim, varphi.trunc)
    return all(sum(I) >= 2 and sum(J) >= 2 for (_, I, J) in rest.num)


# ---------------------------------------------------------------------------
# domain types


class PotentialJets:
    """Real potential jets at a marked point.

    ``varphi`` is a classical ``WickSeries`` whose ``trunc`` is the jet order.
    With ``normalized=True`` the normal form is verified at construction, so
    the flag can be trusted downstream, and ``psi`` holds the volume-log jets
    (``trunc = max(order - 2, 0)``), computed once; otherwise ``psi`` is None.
    ``psi`` is derived data and is excluded from equality.
    """

    __slots__ = ("varphi", "psi", "normalized")

    def __init__(self, varphi: WickSeries, normalized: bool = False):
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
        object.__setattr__(self, "psi", volume_log_jets(self) if normalized else None)

    @classmethod
    def from_records(cls, dim: int, order: int, records) -> "PotentialJets":
        """Raw jets from ``{"I", "J", "re", "im"}`` records; duplicates add up.

        A jet above the order window raises instead of being truncated away,
        and so does a jet with a nonzero ``"k2"``: potentials carry no h.
        """
        terms = {}
        jets = accumulate(read_record({"k2": 0, **rec}, "k2", "I", "J")
                          for rec in records)
        for (k2, I, J), c in jets.items():
            if k2:
                raise PreconditionError(
                    f"potential jet {(I, J)!r} has k2={k2}; potentials carry no h")
            if len(I) != dim or len(J) != dim or min(I + J, default=0) < 0:
                raise PreconditionError(
                    f"bad potential multi-index {(I, J)!r} for dim {dim}")
            if sum(I) + sum(J) > order:
                raise PreconditionError(
                    f"potential jet {(I, J)!r} exceeds the order-{order} window")
            terms[(0, I, J)] = c
        return cls(WickSeries(dim, order, terms))

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


class CurvatureTensor:
    """Quartic curvature data R[(i, j, k, l)] paired with z_i zbar_j z_k zbar_l.

    Entries are symmetric under swapping (i, k) and (j, l) and satisfy the
    Hermitian reality R[(i, j, k, l)] == conj(R[(j, i, l, k)]); both are
    verified at construction.  Missing entries read as zero.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries):
        store = {}
        for key, value in dict(entries).items():
            i, j, k, l = (int(v) for v in key)
            if not all(0 <= v < dim for v in (i, j, k, l)):
                raise PreconditionError(f"curvature index {key!r} out of range")
            coeff = ComplexRational.coerce(value)
            if coeff:
                store[(i, j, k, l)] = coeff
        zero = ComplexRational()
        for (i, j, k, l), c in store.items():
            if store.get((k, j, i, l), zero) != c or store.get((i, l, k, j), zero) != c:
                raise PreconditionError("curvature entries must be symmetric "
                                        "in the holomorphic and in the "
                                        "anti-holomorphic index pairs")
            if store.get((j, i, l, k), zero) != c.conjugate():
                raise PreconditionError("curvature entries must satisfy "
                                        "Hermitian reality")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", store)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("CurvatureTensor is immutable")

    def entry(self, i: int, j: int, k: int, l: int) -> ComplexRational:
        return self.entries.get((i, j, k, l), ComplexRational())

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        return (self.dim, self.entries) == (other.dim, other.entries)

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"CurvatureTensor(dim={self.dim}, entries={len(self.entries)})"


# ---------------------------------------------------------------------------
# normalization


def _one_one_matrix(series: WickSeries, dim: int) -> list:
    """Hermitian matrix M with M[i][j] = coefficient of z_j zbar_i."""
    return [[series.coefficient(0, _unit(dim, j), _unit(dim, i))
             for j in range(dim)] for i in range(dim)]


def _sqrt_fraction(value: Fraction):
    if value <= 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def _ldl(matrix: list, dim: int):
    """Unit-lower-triangular L and positive pivots D with M = L D L^dagger."""
    L = [[ComplexRational(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    D = [Fraction(0)] * dim
    for j in range(dim):
        pivot = matrix[j][j]
        for k in range(j):
            pivot = pivot - L[j][k] * L[j][k].conjugate() * D[k]
        if pivot.im or pivot.re <= 0:
            raise PreconditionError("the (1,1) part is not positive definite")
        D[j] = pivot.re
        for i in range(j + 1, dim):
            acc = matrix[i][j]
            for k in range(j):
                acc = acc - L[i][k] * L[j][k].conjugate() * D[k]
            L[i][j] = acc / pivot
    return L, D


def _diagonalizing_change(matrix: list, dim: int):
    """B with B^dagger M B = Id, or None when M is already the identity."""
    if all(matrix[i][j] == (1 if i == j else 0) for i in range(dim) for j in range(dim)):
        return None
    L, D = _ldl(matrix, dim)
    roots = []
    for pivot in D:
        root = _sqrt_fraction(pivot)
        if root is None:
            raise PreconditionError(
                f"quadratic pivot {pivot} is not a perfect rational square; "
                "the (1,1) part cannot be diagonalized exactly")
        roots.append(root)
    X, _ = _invert_constant([[L[j][i].conjugate() for j in range(dim)]
                             for i in range(dim)], dim)
    return [[X[i][j] * (Fraction(1) / roots[j]) for j in range(dim)]
            for i in range(dim)]


def _holo_slice(series: WickSeries, degree: int) -> WickSeries:
    picked = {(k2, I, J): pair for (k2, I, J), pair in series.num.items()
              if k2 == 0 and not any(J) and sum(I) == degree}
    return series._build(picked, series.den)


def k_normalize(raw: PotentialJets):
    """Normal-form coordinates and frame at the marked point.

    Returns ``(normalized, coord_change, frame_change)``: the normalized
    potential (volume-log jets attached), a tuple of holomorphic series
    expressing the original coordinates in the new ones, and the holomorphic
    frame series G with ``raw o coord_change - G - conj(G) == normalized``.
    """
    if raw.order < 2:
        raise PreconditionError("normalization needs jets at least to order 2")
    dim, order = raw.dim, raw.order
    zero = mi_zero(dim)
    current = raw.varphi
    coords = _identity_coords(dim, order)
    frame = WickSeries.zero(dim, order)

    def substitute_all(subs):
        nonlocal current, frame, coords
        current = _substitute(current, subs)
        frame = _substitute(frame, subs)
        coords = [_substitute(c, subs) for c in coords]

    for d in range(order + 1):
        g = _holo_slice(current, d)
        if d == 0:
            g = g.scale(Fraction(1, 2))
        if g:
            current = current - g - g.conjugate()
            frame = frame + g
        if d == 2:
            change = _diagonalizing_change(_one_one_matrix(current, dim), dim)
            if change is not None:
                subs = [WickSeries(dim, order,
                                   {(0, _unit(dim, j), zero): change[i][j]
                                    for j in range(dim)})
                        for i in range(dim)]
                substitute_all(subs)
            after = _one_one_matrix(current, dim)
            if any(after[i][j] != (1 if i == j else 0)
                   for i in range(dim) for j in range(dim)):
                raise SolveError("quadratic diagonalization failed")
        elif d >= 3:
            hs = []
            for j in range(dim):
                ej = _unit(dim, j)
                picked = {(0, I, zero): (-a, -b)
                          for (k2, I, J), (a, b) in current.num.items()
                          if k2 == 0 and J == ej and sum(I) == d - 1}
                hs.append(current._build(picked, current.den))
            if any(hs):
                subs = [unit + h for unit, h in zip(_identity_coords(dim, order), hs)]
                substitute_all(subs)

    return PotentialJets(current, normalized=True), tuple(coords), frame


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
    result = _substitute(raw.varphi, coord_change) \
        - frame_change - frame_change.conjugate()
    return PotentialJets(result, normalized=_is_normal_form(result))


# ---------------------------------------------------------------------------
# volume-log jets and derived data


def _invert_constant(matrix: list, dim: int):
    """Gauss-Jordan inverse and determinant of a constant matrix.

    Returns ``(inverse, det)``; a singular matrix gives ``(None, 0)``.
    """
    rows = [list(matrix[i]) + [ComplexRational(1 if i == j else 0)
                               for j in range(dim)] for i in range(dim)]
    det = ComplexRational(1)
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if rows[r][col]), None)
        if pivot is None:
            return None, ComplexRational()
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = ComplexRational(1) / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(dim):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[dim:] for row in rows], det


def volume_log_jets(p: PotentialJets) -> WickSeries:
    """Jets of the log-determinant of the metric, zero for the flat potential.

    This is log det M by Jacobi's identity, M = (d^2 varphi / dz_i dzbar_j).

    With A = M(0) of determinant 1 and X = A^-1 (M - A), log det M is
    sum_k (-1)^(k+1) tr(X^k) / k.  X has no constant term, so X^k vanishes
    once k times the least degree of X passes order - 2 (a normal form's X
    starts in degree 2).  Full powers are formed up to half that k; each
    later trace takes only the diagonal of a product of two of them.
    """
    varphi = p.varphi
    dim = varphi.dim
    r2 = max(varphi.trunc - 2, 0)
    constant = [[varphi.coefficient(0, _unit(dim, i), _unit(dim, j))
                 for j in range(dim)] for i in range(dim)]
    rest = [[{} for _ in range(dim)] for _ in range(dim)]
    for (_, I, J), (a, b) in varphi.num.items():
        for i in range(dim):
            if not I[i]:
                continue
            di = mi_sub(I, _unit(dim, i))
            for j in range(dim):
                if not J[j]:
                    continue
                dj = mi_sub(J, _unit(dim, j))
                if (any(di) or any(dj)) and sum(di) + sum(dj) <= r2:
                    rest[i][j][(0, di, dj)] = (a * I[i] * J[j], b * I[i] * J[j])
    inverse, det = _invert_constant(constant, dim)
    if not det:
        raise PreconditionError("the metric is degenerate at the marked point")
    if det != 1:
        raise PreconditionError(
            "volume-log jets need unit metric determinant at the point; "
            "normalize the potential first")
    zero = WickSeries.zero(dim, r2)
    blocks = [[zero._build(terms, varphi.den) for terms in row] for row in rest]
    x = [[sum((block.scale(a) for a, block in zip(inverse[i], column) if a), zero)
          for column in zip(*blocks)] for i in range(dim)]

    def entry(row: list, right: list, j: int) -> WickSeries:
        """Entry j of the product of a row with the matrix ``right``."""
        return sum((row[l] * right[l][j] for l in range(dim)
                    if row[l] and right[l][j]), zero)

    # X^k has degree at least k times the least degree of X
    lowest = min((s.min_degree() for row in x for s in row if s), default=r2 + 1)
    last = r2 // lowest
    # full powers up to X^half; tr(X^k) = tr(X^half X^(k - half)) beyond
    half = (last + 1) // 2
    powers = [x]
    while len(powers) < half:
        powers.append([[entry(row, x, j) for j in range(dim)]
                       for row in powers[-1]])
    out = zero
    for k in range(1, last + 1):
        if k <= half:
            trace = sum((powers[k - 1][i][i] for i in range(dim)), zero)
        else:
            trace = sum((entry(powers[half - 1][i], powers[k - half - 1], i)
                         for i in range(dim)), zero)
        out = out + trace.scale(Fraction((-1) ** (k + 1), k))
    return out


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
    weight = WeightSeries(_norm_squared(p.dim, trunc) - p.varphi.retruncate(trunc)
                          + p.psi.retruncate(trunc).hbar_shift(2))
    if not (weight.is_real and weight.toeplitz_admissible and weight.refined):
        raise SolveError("normalized potential produced an inadmissible weight")
    return weight


def _index_pair(I):
    spots = [i for i, v in enumerate(I) if v]
    if len(spots) == 1:
        return (spots[0], spots[0]), 1
    return (spots[0], spots[1]), 2


def curvature(p: PotentialJets) -> CurvatureTensor:
    """Read the quartic (2,2) jets of a normalized potential as a tensor."""
    if not p.normalized:
        raise PreconditionError("curvature needs a normalized potential")
    if p.order < 4:
        raise PreconditionError("curvature needs jets at least to order 4")
    entries = {}
    for (_, I, J), c in p.varphi.terms.items():
        if sum(I) != 2 or sum(J) != 2:
            continue
        (i, k), mult_i = _index_pair(I)
        (j, l), mult_j = _index_pair(J)
        value = c / (mult_i * mult_j)
        for a, b in ((i, k), (k, i)):
            for u, v in ((j, l), (l, j)):
                entries[(a, u, b, v)] = value
    return CurvatureTensor(p.dim, entries)


# ---------------------------------------------------------------------------
# built-in potentials


def flat_potential(dim: int, order: int) -> PotentialJets:
    """The flat potential |z|^2; its volume-log jets vanish identically."""
    if order < 2:
        raise PreconditionError("the flat potential needs order >= 2")
    return PotentialJets(_norm_squared(dim, order), normalized=True)


def fubini_study_potential(dim: int, order: int) -> PotentialJets:
    """Jets of log(1 + |z|^2); already in normal form."""
    if order < 2:
        raise PreconditionError("the Fubini-Study potential needs order >= 2")
    t = _norm_squared(dim, order)
    acc = WickSeries.zero(dim, order)
    for k, power in enumerate(power_terms(t, t, mul), 1):
        acc = acc + power.scale(Fraction(1 if k % 2 else -1, k))
    return PotentialJets(acc, normalized=True)


def random_real_analytic_potential(seed: int, dim: int, order: int,
                                   n_terms: int = 6) -> PotentialJets:
    """A random raw potential whose normalization succeeds in exact arithmetic.

    The (1,1) block is built as L diag(r^2) L^dagger with unit-triangular L
    and nonzero rational r, so the diagonalization pivots are perfect
    squares.  Constant, linear, purely holomorphic and mixed higher jets are
    thrown in and symmetrized to keep the potential real.
    """
    if order < 2:
        raise PreconditionError("random potentials need order >= 2")
    rng = _random.Random(seed)
    varphi: dict = {}

    def add(I, J, c):
        key = (0, tuple(I), tuple(J))
        varphi[key] = varphi.get(key, ComplexRational()) + ComplexRational.coerce(c)

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
                add(_unit(dim, j), _unit(dim, i), acc)

    add(mi_zero(dim), mi_zero(dim), random_rational(rng, 4, 3))
    for i in range(dim):
        if rng.random() < 0.8:
            c = random_coefficient(rng, 4, 3, 0.6)
            add(_unit(dim, i), mi_zero(dim), c)
            add(mi_zero(dim), _unit(dim, i), c.conjugate())

    half = ComplexRational(Fraction(1, 2))
    for _ in range(n_terms):
        for _attempt in range(40):
            I = tuple(rng.randint(0, 3) for _ in range(dim))
            J = tuple(rng.randint(0, 3) for _ in range(dim))
            total = sum(I) + sum(J)
            if total < 2 or total > order or (sum(I) == 1 and sum(J) == 1):
                continue
            c = random_coefficient(rng, 4, 3, 0.6) * half
            add(I, J, c)
            add(J, I, c.conjugate())
            break

    return PotentialJets(WickSeries(dim, order, varphi))

