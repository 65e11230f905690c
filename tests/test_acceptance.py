"""Acceptance gate: every deliverable identity at its stated size and budget.

Each test drives one of the shared randomized suites at the full advertised
case counts and asserts exact equality (the convergence-rate fits are the
single floating-point exception, bounded explicitly).  Wall-clock budgets
are part of the contract and asserted where stated.
"""

import inspect
import time
from fractions import Fraction

from wickjet.cp1 import cp1_toeplitz, fs_ratio_symbol
from wickjet.suites import (
    SUITES,
    composition_decay_suite,
    composition_fits,
    flat_reduction_suite,
    formal_integral_suite,
    k_jet_suite,
    peak_section_rows,
    peak_section_suite,
    representation_suite,
    single_operator_suite,
    wick_core_suite,
)

from support import cp1_gram

SEED = 20260825


def run_within(suite, budget_seconds):
    start = time.monotonic()
    report = suite(seed=SEED)
    elapsed = time.monotonic() - start
    assert not report.failures, report.failures[:5]
    assert elapsed < budget_seconds, (
        f"{report.name} took {elapsed:.1f}s, budget {budget_seconds}s")
    return report


def test_every_suite_takes_only_its_seed():
    for suite in SUITES.values():
        assert list(inspect.signature(suite).parameters) == ["seed"], suite


def test_criterion_1_wick_core_identities():
    # associativity, grading, module action, conjugation, exp/log round
    # trips: 200 randomized cases per property, dims <= 2, trunc <= 8
    report = run_within(wick_core_suite, 120.0)
    assert report.cases == 5 * 200


def test_criterion_2_formal_integral_identities():
    # Hermitian law, filtration, orthonormal-mod-h, leading-term bounds
    # (refined included), symbol defining identity + leading term, two-route
    # symbol equivalence, adjoint law — random degree-3..5 weights
    report = run_within(formal_integral_suite, 120.0)
    assert report.cases >= 200


def test_criterion_3_jet_normalization():
    # round-trip + idempotence + volume-log vanishing + weight flags on 50
    # random order-6 real jets
    report = run_within(k_jet_suite, 120.0)
    assert report.cases == 5 * 50


def test_criterion_4_peak_section_identity():
    report = run_within(peak_section_suite, 60.0)
    assert report.cases == 4 * 5

    # spot-check the stated ground truth directly against the engine rows
    rows = {p: engine for p, engine, _, _ in peak_section_rows(3, 4)}
    assert [rows[0].coefficient(2 * k) for k in range(5)] == [1, -1, 1, -1, 1]
    assert rows[1].coefficient(0) == 0
    assert [rows[1].coefficient(2 * k) for k in range(1, 5)] == [1, -1, 1, -1]


def test_criterion_5_single_operator_matrix_elements():
    report = run_within(single_operator_suite, 60.0)
    assert report.cases == 9 * 4

    # numeric anchor for the closed form the suite expands: at a concrete
    # tensor power the oracle matrix is diagonal with entries (p+1)/(m+2)
    m = 24
    matrix = cp1_toeplitz(m, fs_ratio_symbol())
    for p in range(3):
        assert matrix.entries[p][p] == Fraction(p + 1, m + 2)
        assert matrix.entry(p, p) * cp1_gram(m, p) == \
            cp1_gram(m, p) * Fraction(p + 1, m + 2)


def test_criterion_6_composition_decay_rates():
    start = time.monotonic()
    report = composition_decay_suite(seed=SEED)
    elapsed = time.monotonic() - start
    assert not report.failures, report.failures
    assert elapsed < 300.0

    fits = composition_fits(orders=(0, 1, 2), ms=(32, 64, 128, 256, 512),
                            elements=((0, 0), (1, 1)))
    for order in (0, 1, 2):
        bound = -(order + 1) + 0.3
        for element in ((0, 0), (1, 1)):
            fit = fits[order][element]
            assert not fit["exact"]
            assert fit["fitted"] <= bound, (order, element, fit["fitted"])


def test_criterion_7_flat_reduction():
    report = run_within(flat_reduction_suite, 120.0)
    assert report.cases == 100


def test_criterion_8_self_adjointness_and_vacuum_reduction():
    report = run_within(representation_suite, 300.0)
    assert report.cases == 2 * 50
