"""The machine's speed at the moment, from a fixed piece of stdlib work.

The benchmark runs on hosts shared with other tenants, whose speed drifts by
up to 2x over seconds to minutes.  A median over the passes of one run
cannot remove a drift that lasts the whole run, so two runs of the same code
can differ by more than any useful bound.

So a run times a short reference chunk between consecutive jobs, and
reports each job's time relative to the median of the chunks around it
(``WINDOW`` on each side), in seconds at a fixed reference speed: the speed
at which one chunk takes ``REFERENCE_S``.  A change to wickjet moves these
times exactly as it moves the raw ones, because the reference does not
change; a drift of the machine moves the job and the chunks around it
together, and cancels.

The chunk uses only the standard library: ``Fraction`` arithmetic over a
small dict of tuple-keyed terms, the same kind of work as wickjet's series
kernels.  The cyclic garbage collector is off while it runs, so the size of
the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Time of one chunk at the reference speed.  It is close to the chunk's
# fastest time on a 2-vCPU virtual machine with Python 3.11, so reported
# times read as seconds on that machine when it is quiet.
REFERENCE_S = 0.002
# Chunks on each side of a job that set its reference: more than one, so a
# single chunk hit by an interrupt does not skew the job.
WINDOW = 2


def _chunk() -> Fraction:
    terms = {}
    for i in range(48):
        key = (i % 3, (i % 4, i % 5), (i % 2, i % 7))
        terms[key] = terms.get(key, 0) + Fraction(i * 7919 % 101 - 50,
                                                  i % 13 + 1)
    values = list(terms.values())
    total = Fraction(0)
    for a in values:
        for b in values[:12]:
            total += a * b
    return total


def chunk_time() -> float:
    """Wall time of one reference chunk, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _chunk()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def around(chunks: list, position: int) -> float:
    """Median time of the chunks around the job at ``position``.

    ``chunks[p]`` ran just before the job at position ``p`` and
    ``chunks[p + 1]`` just after it.
    """
    low = max(0, position + 1 - WINDOW)
    return statistics.median(chunks[low:position + 1 + WINDOW])


def normalise(seconds: float, chunk: float) -> float:
    """``seconds`` measured where a chunk took ``chunk``, at the reference
    speed."""
    return seconds * REFERENCE_S / chunk
