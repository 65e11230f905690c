"""Shared helpers for the test suite: random inputs and independent oracles.

The oracles here deliberately avoid the package's own algorithms: star
products and module actions are recomputed through sympy's symbolic
differentiation, CP^1 Toeplitz matrices are tabulated densely from the
Beta integral, and volume-log jets expand the metric determinant over all
permutations, so a kernel bug cannot cancel against itself.  The reference
products and actions below visit every pair of terms in plain
ComplexRational arithmetic, with none of the integer kernel's common
denominators or degree-sorted early exits.  The reference substitution
adds up one scaled series per term of the substituted series.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

import numpy as np
import sympy as sp

from wickjet.coefficients import ComplexRational
from wickjet.errors import PreconditionError
from wickjet.series import WickSeries, accumulate, mi_sub, mi_zero


def hseries(trunc: int, terms: dict | None = None) -> WickSeries:
    """A series in h alone (dim 0) from ``{k2: coefficient}``."""
    return WickSeries(0, trunc, {(k2, (), ()): c for k2, c in (terms or {}).items()})


def mi_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def iter_multi_indices(dim: int, max_abs: int):
    """All multi-indices of length dim with |I| <= max_abs, lexicographic."""
    if dim == 0:
        yield ()
        return
    for head in range(max_abs + 1):
        for tail in iter_multi_indices(dim - 1, max_abs - head):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# random generators


def random_fraction(rng: random.Random, small: bool = True) -> Fraction:
    num = rng.randint(-6, 6)
    den = rng.randint(1, 4 if small else 9)
    return Fraction(num, den)


def random_coefficient(rng: random.Random, allow_complex: bool = True) -> ComplexRational:
    while True:
        re = random_fraction(rng)
        im = random_fraction(rng) if (allow_complex and rng.random() < 0.5) else Fraction(0)
        if re or im:
            return ComplexRational(re, im)


def random_multi_index(rng: random.Random, dim: int, max_abs: int) -> tuple:
    total = rng.randint(0, max_abs)
    index = [0] * dim
    for _ in range(total):
        index[rng.randrange(dim)] += 1
    return tuple(index)


def random_series(rng: random.Random, dim: int, trunc: int, n_terms: int = 4,
                  min_degree: int = 0, allow_complex: bool = True,
                  even_k2_only: bool = True, k2_min: int = 0) -> WickSeries:
    """A sparse random series whose terms all have degree within the window."""
    terms = {}
    for _ in range(n_terms):
        for _attempt in range(60):
            I = random_multi_index(rng, dim, trunc)
            J = random_multi_index(rng, dim, trunc)
            room_low = min_degree - sum(I) - sum(J)
            room_high = trunc - sum(I) - sum(J)
            k2_low = max(k2_min, room_low)
            if k2_low > room_high:
                continue
            k2 = rng.randint(k2_low, room_high)
            if even_k2_only and k2 % 2:
                k2 += 1 if k2 + 1 <= room_high else -1
                if k2 < k2_low or k2 % 2:
                    continue
            terms[(k2, I, J)] = random_coefficient(rng, allow_complex)
            break
    return WickSeries(dim, trunc, terms)


def random_monomial(rng: random.Random, dim: int, trunc: int,
                    allow_complex: bool = True) -> WickSeries:
    return random_series(rng, dim, trunc, n_terms=1, allow_complex=allow_complex)


def random_holomorphic(rng: random.Random, dim: int, trunc: int,
                       n_terms: int = 3) -> WickSeries:
    """Random series in the y generators and h only (J = 0)."""
    terms = {}
    for _ in range(n_terms):
        I = random_multi_index(rng, dim, trunc)
        k2 = 2 * rng.randint(0, max(0, (trunc - sum(I)) // 2))
        terms[(k2, I, mi_zero(dim))] = random_coefficient(rng)
    return WickSeries(dim, trunc, terms)


def random_weight_body(rng: random.Random, dim: int, trunc: int, n_terms: int = 3,
                       max_degree: int = 5, two_sided: bool = True,
                       real: bool = True, refined: bool = False,
                       allow_hbar: bool = True) -> WickSeries:
    """Random weight-series body: real, degrees in [3, max_degree].

    Every generated monomial contains at least one yb (and, with
    ``two_sided``, at least one y), matching what geometric weights look
    like; reality is enforced by symmetrizing with the conjugate.
    """
    terms = {}
    for _ in range(n_terms):
        for _attempt in range(80):
            I = random_multi_index(rng, dim, max_degree)
            J = random_multi_index(rng, dim, max_degree)
            if not any(J):
                continue
            if two_sided and not any(I):
                continue
            if refined and (sum(I) == 1 or sum(J) == 1):
                continue
            base = sum(I) + sum(J)
            k2_choices = [0]
            if allow_hbar:
                k2_choices.append(2)
            k2 = rng.choice(k2_choices)
            deg = k2 + base
            if not (3 <= deg <= max_degree):
                continue
            terms[(k2, I, J)] = random_coefficient(rng)
            break
    body = WickSeries(dim, trunc, terms)
    if real:
        body = (body + body.conjugate()).scale(Fraction(1, 2))
    return body


# ---------------------------------------------------------------------------
# sympy-based oracles (independent route)


def _sympy_symbols(dim: int):
    ys = sp.symbols(f"y0:{dim}")
    bs = sp.symbols(f"b0:{dim}")
    h = sp.Symbol("hsym")
    return ys, bs, h


def series_to_sympy(f: WickSeries):
    """Plain, even-k2 series -> sympy expression. Raises on sqrt(h) terms."""
    ys, bs, h = _sympy_symbols(f.dim)
    expr = sp.Integer(0)
    for (k2, I, J), coeff in f.terms.items():
        if k2 % 2 or k2 < 0:
            raise ValueError("sympy oracle handles plain integer h-powers only")
        term = sp.Rational(coeff.re.numerator, coeff.re.denominator) \
            + sp.I * sp.Rational(coeff.im.numerator, coeff.im.denominator)
        term *= h ** (k2 // 2)
        for i in range(f.dim):
            term *= ys[i] ** I[i] * bs[i] ** J[i]
        expr += term
    return expr


def sympy_to_series(expr, dim: int, trunc: int) -> WickSeries:
    ys, bs, h = _sympy_symbols(dim)
    expr = sp.expand(expr)
    terms = {}
    addends = expr.as_ordered_terms() if expr != 0 else []
    for addend in addends:
        powers = addend.as_powers_dict()
        k = int(powers.get(h, 0))
        I = tuple(int(powers.get(ys[i], 0)) for i in range(dim))
        J = tuple(int(powers.get(bs[i], 0)) for i in range(dim))
        coeff_expr = sp.simplify(addend / (h ** k
                                           * sp.prod([ys[i] ** I[i] for i in range(dim)])
                                           * sp.prod([bs[i] ** J[i] for i in range(dim)])))
        re_part, im_part = coeff_expr.as_real_imag()
        coeff = ComplexRational(
            Fraction(int(sp.nsimplify(re_part).p), int(sp.nsimplify(re_part).q)),
            Fraction(int(sp.nsimplify(im_part).p), int(sp.nsimplify(im_part).q)),
        )
        key = (2 * k, I, J)
        if 2 * k + sum(I) + sum(J) > trunc:
            continue
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    return WickSeries(dim, trunc, terms)


def oracle_star(f: WickSeries, g: WickSeries) -> WickSeries:
    """Star product recomputed via symbolic differentiation (sympy route)."""
    dim, trunc = f.dim, f.trunc
    ys, bs, h = _sympy_symbols(dim)
    F = series_to_sympy(f)
    G = series_to_sympy(g)
    expr = sp.Integer(0)
    for alpha in iter_multi_indices(dim, trunc):
        dF = F
        dG = G
        for i in range(dim):
            if alpha[i]:
                dF = sp.diff(dF, ys[i], alpha[i])
                dG = sp.diff(dG, bs[i], alpha[i])
        if dF == 0 or dG == 0:
            continue
        fact = 1
        for a in alpha:
            fact *= sp.factorial(a)
        expr += (-h) ** sum(alpha) / fact * dF * dG
    return sympy_to_series(expr, dim, trunc)


def oracle_fock_act(f: WickSeries, s: WickSeries) -> WickSeries:
    """Module action recomputed symbolically: multiply by y^I, then (h d_y)^J."""
    dim, trunc = f.dim, f.trunc
    ys, bs, h = _sympy_symbols(dim)
    S = series_to_sympy(s)
    expr = sp.Integer(0)
    for (k2, I, J), coeff in f.terms.items():
        if k2 % 2 or k2 < 0:
            raise ValueError("oracle handles plain integer h-powers only")
        c = sp.Rational(coeff.re.numerator, coeff.re.denominator) \
            + sp.I * sp.Rational(coeff.im.numerator, coeff.im.denominator)
        acted = S
        for i in range(dim):
            acted *= ys[i] ** I[i]
        for i in range(dim):
            for _ in range(J[i]):
                acted = h * sp.diff(acted, ys[i])
        expr += c * h ** (k2 // 2) * acted
    return sympy_to_series(expr, dim, trunc)


# ---------------------------------------------------------------------------
# dense CP^1 Toeplitz oracle


def dense_cp1_toeplitz(m: int, symbol) -> list:
    """Every cell of the CP^1 Toeplitz matrix, straight from the Beta integral.

    For a term c z^a zbar^b / (1+|z|^2)^d the pairing of f z^p against z^q is
    nonzero only when n = p + a = q + b, and then equals
    c m B(n+1, m+d+1-n) = c m n! (m+d-n)! / (m+d+1)!; dividing by the Gram
    norm m q! (m-q)! / (m+1)! gives cell (q, p).  Returns rows[q][p].
    """
    d = symbol.denom_power
    rows = [[ComplexRational(0)] * (m + 1) for _ in range(m + 1)]
    for q in range(m + 1):
        for p in range(m + 1):
            for (a, b), c in symbol.num.items():
                n = p + a
                if n != q + b:
                    continue
                beta = Fraction(factorial(n) * factorial(m + d - n),
                                factorial(m + d + 1))
                gram = Fraction(factorial(q) * factorial(m - q),
                                factorial(m + 1))
                rows[q][p] = rows[q][p] + c * (beta / gram)
    return rows


def dense_matmul(left: list, right: list) -> list:
    """Plain triple-loop product of two ComplexRational row-list matrices."""
    zero = ComplexRational(0)
    return [[sum((row[r] * right[r][p] for r in range(len(right))), zero)
             for p in range(len(right[0]))] for row in left]


def hermitized(matrix) -> np.ndarray:
    """Similar Hermitian float matrix D^(1/2) M D^(-1/2) of a CP^1 Toeplitz matrix.

    D is the Gram diagonal m q! (m-q)! / (m+1)!, so the eigenvalues of the
    result are those of the operator.
    """
    m = matrix.m
    dense = np.array([[complex(float(c.re), float(c.im)) for c in row]
                      for row in matrix.entries])
    scale = np.sqrt([float(Fraction(m * factorial(q) * factorial(m - q),
                                    factorial(m + 1))) for q in range(m + 1)])
    return (scale[:, None] * dense) / scale[None, :]


# ---------------------------------------------------------------------------
# permutation-expansion volume-log oracle


def permutation_volume_log(varphi: WickSeries) -> WickSeries:
    """Jets of log det(d^2 varphi / dz dzbar), det expanded over dim! permutations.

    Needs unit determinant at the point; returns the classical series
    up to degree ``trunc - 2``.
    """
    dim = varphi.dim
    r2 = max(varphi.trunc - 2, 0)
    zero = mi_zero(dim)
    unit = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]
    metric = [[WickSeries(dim, r2, {
        (0, mi_sub(I, unit[i]), mi_sub(J, unit[j])): c * (I[i] * J[j])
        for (_, I, J), c in varphi.terms.items()
        if I[i] and J[j] and sum(I) + sum(J) - 2 <= r2})
        for j in range(dim)] for i in range(dim)]
    det = WickSeries.zero(dim, r2)
    for perm in permutations(range(dim)):
        prod = WickSeries.unit(dim, r2)
        for i in range(dim):
            prod = prod * metric[i][perm[i]]
        inversions = sum(1 for a in range(dim) for b in range(a + 1, dim)
                         if perm[a] > perm[b])
        det = det + (-prod if inversions % 2 else prod)
    if det.coefficient(0, zero, zero) != 1:
        raise ValueError("the oracle needs unit metric determinant")
    x = det - WickSeries.unit(dim, r2)
    out = WickSeries.zero(dim, r2)
    power = WickSeries.unit(dim, r2)
    for k in range(1, r2 + 1):
        power = power * x
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


# ---------------------------------------------------------------------------
# plain ComplexRational references for the integer kernel


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _within(f: WickSeries, g: WickSeries):
    """Every pair of terms whose degrees sum to at most the truncation."""
    for (k2f, If, Jf), cf in f.terms.items():
        for (k2g, Ig, Jg), cg in g.terms.items():
            if k2f + sum(If) + sum(Jf) + k2g + sum(Ig) + sum(Jg) <= f.trunc:
                yield (k2f, If, Jf), cf, (k2g, Ig, Jg), cg


def _series(f: WickSeries, pairs) -> WickSeries:
    return WickSeries(f.dim, f.trunc, accumulate(pairs))


def reference_product(f: WickSeries, g: WickSeries) -> WickSeries:
    """Pointwise product, one ComplexRational product per pair of terms."""
    return _series(f, (
        ((k2f + k2g, mi_add(If, Ig), mi_add(Jf, Jg)), cf * cg)
        for (k2f, If, Jf), cf, (k2g, Ig, Jg), cg in _within(f, g)))


def reference_star(f: WickSeries, g: WickSeries) -> WickSeries:
    """Wick product: every contraction alpha <= min(I_f, J_g) of every pair."""
    def pairs():
        for (k2f, If, Jf), cf, (k2g, Ig, Jg), cg in _within(f, g):
            ranges = [range(min(i, j) + 1) for i, j in zip(If, Jg)]
            for alpha in product(*ranges):
                scalar = (-1) ** sum(alpha)
                for i, j, a in zip(If, Jg, alpha):
                    scalar *= comb(i, a) * _falling(j, a)
                key = (k2f + k2g + 2 * sum(alpha),
                       mi_add(mi_sub(If, alpha), Ig),
                       mi_add(Jf, mi_sub(Jg, alpha)))
                yield key, cf * cg * scalar
    return _series(f, pairs())


def reference_fock_act(f: WickSeries, s: WickSeries) -> WickSeries:
    """y^I yb^J acting on holomorphic s as (h d_y)^J after multiplying by y^I."""
    zero = mi_zero(f.dim)

    def pairs():
        for (k2, I, J), cf, (k2s, P, _), cs in _within(f, s):
            top = mi_add(I, P)
            if all(t >= j for t, j in zip(top, J)):
                scalar = 1
                for t, j in zip(top, J):
                    scalar *= _falling(t, j)
                yield ((k2 + k2s + 2 * sum(J), mi_sub(top, J), zero),
                       cf * cs * scalar)
    return _series(f, pairs())


def reference_anti_fock_act(f: WickSeries, s: WickSeries) -> WickSeries:
    """y^I yb^J acting on anti-holomorphic s as yb^J after (-h d_yb)^I."""
    zero = mi_zero(f.dim)

    def pairs():
        for (k2, I, J), cf, (k2s, _, Q), cs in _within(f, s):
            if all(q >= i for q, i in zip(Q, I)):
                scalar = (-1) ** sum(I)
                for q, i in zip(Q, I):
                    scalar *= _falling(q, i)
                yield ((k2 + k2s + 2 * sum(I), zero, mi_add(mi_sub(Q, I), J)),
                       cf * cs * scalar)
    return _series(f, pairs())


# ---------------------------------------------------------------------------
# per-term reference for the substitution in jets


def _power_table(s: WickSeries, top: int) -> list:
    table = [WickSeries.unit(s.dim, s.trunc)]
    for _ in range(top):
        table.append(table[-1] * s)
    return table


def reference_substitute(series: WickSeries, subs: list) -> WickSeries:
    """Formal composition: replace z_i by subs[i] (and zbar_i by its conjugate)."""
    dim, trunc = series.dim, series.trunc
    for s in subs:
        if s.coefficient(0, mi_zero(dim), mi_zero(dim)):
            raise PreconditionError("coordinate changes must fix the marked point")
    conj = [s.conjugate() for s in subs]
    max_i = [0] * dim
    max_j = [0] * dim
    for (k2, I, J) in series.terms:
        if k2:
            raise PreconditionError("substitution is defined for classical jets only")
        for i in range(dim):
            max_i[i] = max(max_i[i], I[i])
            max_j[i] = max(max_j[i], J[i])
    pows = [_power_table(subs[i], max_i[i]) for i in range(dim)]
    cpows = [_power_table(conj[i], max_j[i]) for i in range(dim)]
    out = WickSeries.zero(dim, trunc)
    for (k2, I, J), c in series.terms.items():
        acc = None
        for i in range(dim):
            for table, p in ((pows[i], I[i]), (cpows[i], J[i])):
                if p:
                    acc = table[p] if acc is None else acc * table[p]
        term = WickSeries(dim, trunc, {(0, mi_zero(dim), mi_zero(dim)): c}) \
            if acc is None else acc.scale(c)
        out = out + term
    return out
