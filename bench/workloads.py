"""Seeded job lists for the four benchmark workloads.

Every job is a plain ``wickjet`` job object, exactly what a user would put
in a job file.  The lists depend only on the workload name and the fixture
seed, so ``make_jobs(name, seed)`` returns the same jobs on every run and
machine.  Shapes (dims, truncations, counts) are fixed per workload; the
seed draws the modes, the coefficients, the random-potential seeds and the
suite seeds.  See ``bench/README.md`` for why each workload looks the way it does.
"""

from __future__ import annotations

import random

# The first seed is the one the benchmark runs by default; the second is a
# held-out set for checking a claim on inputs it was not tuned on.
FIXTURE_SEEDS = (20260825, 20260826)

SMALL_DENS = (1, 2, 3, 4)
# Pairwise coprime, so sums of products rarely share a denominator.
PRIME_DENS = (1, 2, 3, 5, 7, 11, 13, 17)


def _rational(rng: random.Random, dens, top: int = 6) -> str:
    num = rng.choice([n for n in range(-top, top + 1) if n])
    den = rng.choice(dens)
    return str(num) if den == 1 else f"{num}/{den}"


def _coefficient(rng: random.Random, dens) -> dict:
    im = _rational(rng, dens) if rng.random() < 0.5 else "0"
    return {"re": _rational(rng, dens), "im": im}


def _multi_index(rng: random.Random, dim: int, degree: int) -> list:
    index = [0] * dim
    for _ in range(degree):
        index[rng.randrange(dim)] += 1
    return index


def _series(rng: random.Random, dim: int, trunc: int, n_terms: int, dens,
            max_degree: int, holomorphic: bool = False,
            plain: bool = False) -> list:
    """Distinct term records ``{"k2", "I", "J", "re", "im"}`` in the window.

    ``plain`` keeps every term at h^0, as function jets need.
    """
    records = {}
    while len(records) < n_terms:
        k2 = 0 if plain else 2 * rng.randint(0, 1)
        deg_i = rng.randint(0, max_degree)
        deg_j = 0 if holomorphic else rng.randint(0, max_degree - deg_i)
        if k2 + deg_i + deg_j > trunc:
            continue
        I = _multi_index(rng, dim, deg_i)
        J = _multi_index(rng, dim, deg_j)
        key = (k2, tuple(I), tuple(J))
        records[key] = {"k2": k2, "I": I, "J": J, **_coefficient(rng, dens)}
    return [records[key] for key in sorted(records)]


def _function_jets(rng: random.Random, dim: int, trunc: int) -> dict:
    # The parser requires "k2" in jet records, although it is always 0 here.
    return {"order": trunc,
            "records": _series(rng, dim, trunc, rng.randint(2, 3), SMALL_DENS,
                               3, plain=True)}


def _suite(name: str, seed: int) -> dict:
    return {"mode": "suite", "names": [name], "seed": seed}


# -- curved-symbols ----------------------------------------------------------

# (dim, trunc, jobs) on the Fubini-Study potential.
CURVED_FS = ((1, 8, 6), (1, 10, 4), (1, 12, 3), (1, 14, 1), (1, 16, 1),
             (2, 6, 6), (2, 8, 3), (2, 10, 1))
# (dim, trunc, jobs) on random real-analytic potentials (normalized on entry).
CURVED_RANDOM = ((1, 8, 4), (2, 6, 3))


def curved_symbols(seed: int) -> list:
    rng = random.Random(f"curved-symbols/{seed}")
    # Two random potentials shared by all random jobs, so weights repeat.
    potential_seeds = [rng.randrange(10 ** 6) for _ in range(2)]
    shapes = [(dim, trunc, {"generator": "fubini-study"})
              for dim, trunc, count in CURVED_FS for _ in range(count)]
    shapes += [(dim, trunc, {"generator": "random-real-analytic",
                             "seed": rng.choice(potential_seeds)})
               for dim, trunc, count in CURVED_RANDOM for _ in range(count)]
    jobs = []
    for dim, trunc, potential in shapes:
        job = {"dim": dim, "trunc": trunc, "potential": potential}
        if rng.random() < 0.5:
            job.update(mode="bt-eval", lhs=_function_jets(rng, dim, trunc),
                       rhs=_function_jets(rng, dim, trunc))
        else:
            job.update(mode="rep-act",
                       function=_function_jets(rng, dim, trunc),
                       element=_series(rng, dim, trunc, 2, SMALL_DENS, 2,
                                       holomorphic=True))
        jobs.append(job)
    # The formal-integral suite is left out: it alone takes about 10 s, so a
    # pass would not repeat within a run.
    jobs.append(_suite("representation", seed))
    return jobs


# -- flat-algebra ------------------------------------------------------------

FLAT_WICK_JOBS = 240


def flat_algebra(seed: int) -> list:
    rng = random.Random(f"flat-algebra/{seed}")
    jobs = []
    for _ in range(FLAT_WICK_JOBS):
        dim = rng.randint(1, 3)
        trunc = rng.randint(6, 12)
        jobs.append({
            "mode": "wick-star", "dim": dim, "trunc": trunc,
            "lhs": _series(rng, dim, trunc, rng.randint(2, 5), PRIME_DENS, 4),
            "rhs": _series(rng, dim, trunc, rng.randint(2, 5), PRIME_DENS, 4),
        })
    jobs.append(_suite("wick-core", seed))
    jobs.append(_suite("flat-reduction", seed))
    return jobs


# -- normal-form -------------------------------------------------------------

NORMAL_ORDER = 6
# random-real-analytic potentials per dim.  None above dim 2: there one job
# costs 0.06 s to more than 60 s depending on the potential seed
# (coefficient growth in the substitutions), more than a timed pass holds.
NORMAL_RANDOM = {1: 6, 2: 3}
# Near-normal random potentials per dim.  Their cost is the dim! metric
# determinant and stays within 2x across seeds; the twelve at dim 6 put the
# tail (the 11th slowest job) inside their group.
NORMAL_NEAR = {3: 2, 4: 2, 5: 3, 6: 12}


def _near_normal_potential(rng: random.Random, dim: int, n_terms: int = 4):
    """Raw jets of |z|^2 plus real terms z^I zb^J with |I|, |J| >= 2.

    These are already in normal form up to the volume-log jets, so
    ``k_normalize`` spends its time in the metric determinant.
    """
    jets = {}
    for i in range(dim):
        unit = tuple(int(j == i) for j in range(dim))
        jets[unit, unit] = ("1", "0")
    while len(jets) < dim + 2 * n_terms:
        deg_i = rng.randint(2, NORMAL_ORDER - 2)
        deg_j = rng.randint(2, NORMAL_ORDER - deg_i)
        I = tuple(_multi_index(rng, dim, deg_i))
        J = tuple(_multi_index(rng, dim, deg_j))
        re = _rational(rng, SMALL_DENS, 4)
        im = "0" if I == J else _rational(rng, SMALL_DENS, 4)
        jets[I, J] = (re, im)
        jets[J, I] = (re, im if im == "0" else
                      im[1:] if im.startswith("-") else "-" + im)
    return [{"I": list(I), "J": list(J), "re": re, "im": im}
            for (I, J), (re, im) in sorted(jets.items())]


def normal_form(seed: int) -> list:
    jobs = [{"mode": "k-normalize", "dim": dim,
             "potential": {"generator": "fubini-study",
                           "order": NORMAL_ORDER}}
            for dim in range(1, 7)]
    # One stream per dim and kind: resizing one leaves the others' draws.
    for dim, count in NORMAL_RANDOM.items():
        rng = random.Random(f"normal-form/{seed}/{dim}")
        jobs += [{"mode": "k-normalize", "dim": dim,
                  "potential": {"generator": "random-real-analytic",
                                "seed": rng.randrange(10 ** 6),
                                "order": NORMAL_ORDER}}
                 for _ in range(count)]
    for dim, count in NORMAL_NEAR.items():
        rng = random.Random(f"normal-form/{seed}/near/{dim}")
        jobs += [{"mode": "k-normalize", "dim": dim,
                  "potential": {"order": NORMAL_ORDER,
                                "jets": _near_normal_potential(rng, dim)}}
                 for _ in range(count)]
    # The k-jet suite is left out: with it a pass takes about 12 s, which
    # fits only twice in a run.
    return jobs


# -- cp1-oracle --------------------------------------------------------------

# Largest tensor power per composition job: the job's ms double from 32 up
# to it.  The eight at 128 cost about the same, so the tail falls among them.
CP1_TOPS = (1024, 512) + (256,) * 4 + (128,) * 8
CP1_PEAK_ONLY = 24
CP1_ELEMENTS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 0))


def cp1_oracle(seed: int) -> list:
    rng = random.Random(f"cp1-oracle/{seed}")
    jobs = [{"mode": "cp1-verify", "max_p": rng.randint(2, 5),
             "max_order": rng.randint(2, 4)} for _ in range(CP1_PEAK_ONLY)]
    for top in CP1_TOPS:
        ms = [m for m in (32, 64, 128, 256, 512, 1024) if m <= top]
        elements = rng.sample(CP1_ELEMENTS, 2)
        jobs.append({"mode": "cp1-verify", "max_p": rng.randint(1, 3),
                     "max_order": 3,
                     "composition": {"orders": [0, 1, 2], "ms": ms,
                                     "elements": [list(e) for e in elements]}})
    for name in ("cp1-peak-section", "cp1-single-operator", "cp1-composition"):
        jobs.append(_suite(name, seed))
    return jobs


WORKLOADS = {
    "curved-symbols": curved_symbols,
    "flat-algebra": flat_algebra,
    "normal-form": normal_form,
    "cp1-oracle": cp1_oracle,
}


def make_jobs(workload: str, seed: int) -> list:
    """The job list of one workload at one fixture seed."""
    return WORKLOADS[workload](seed)


def potential_key(job: dict):
    """What fixes a job's weight series: dim, trunc and potential."""
    if "potential" not in job or job["mode"] == "k-normalize":
        return None
    return (job["dim"], job["trunc"],
            tuple(sorted(job["potential"].items())))


def weight_reuse_share(jobs: list) -> float:
    """Share of jobs whose weight an earlier job in the list already built."""
    seen = set()
    reused = 0
    for job in jobs:
        key = potential_key(job)
        if key is None:
            continue
        reused += key in seen
        seen.add(key)
    return reused / len(jobs)
