"""Sieved multiplicative arithmetic functions.

One sieve over a row range n_lo..n_max gives, indexed by n - n_lo,

* Omega(n), the number of prime factors of n counted with multiplicity,
* the Liouville function liouville(n) = (-1)**Omega(n).

Every reader of liouville calls that sieve for the rows it reads, so no
table is handed around.  The signed divisor transform

      beta(n) = sum over divisors d of n of liouville(d) * (-1)**(n/d + 1)

collapses to a closed form: it is 1 when n is a perfect square, -2 when
n is twice a perfect square, and 0 otherwise.  `beta_closed_table` reads
the closed form, which needs no sieve; `beta_definition_table` re-derives
every value straight from the divisor sum so the two routes can be played
off against each other.
"""

from math import isqrt

import numpy as np

from .errors import InvalidBoundError


# Rows of one sieve segment: its int32 cofactor takes 1 MiB.
_SIEVE_SEGMENT = 1 << 18


def sieve(n_max: int, n_lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Omega and liouville for n_lo <= n <= n_max, in slots 0..n_max - n_lo.

    Walks the range in segments of _SIEVE_SEGMENT rows, and in each the
    primes p <= isqrt(n_max), the n with Omega(n) == 1 in this sieve of
    0..isqrt(n_max) (none below n_max = 4).  Along every multiple of
    p**k in the segment, from the first at or above max(n_lo, 1), each
    adds 1 to Omega and divides an int32 cofactor array (initially n) by
    p.  A cofactor left > 1 is the one prime factor above isqrt(n_max)
    and adds 1 more to Omega.  The Python loop runs over the prime
    powers up to n_max (303 primes at 4e6) once per segment, not over
    the rows; the cost is the strided passes, about (n_max - n_lo) *
    (sum of 1/p**k) element operations.  Every row has the same value whatever range
    sieves it, and n = 0 reads 0 in both arrays.  The sieve returns 1 B
    per row in each array and holds one segment's cofactor, 4 B per row
    of the segment (1 MiB), besides.

    Args:
        n_max: inclusive upper bound, n_max <= 2**31 - 1 (int32 storage).
        n_lo: inclusive lower bound, 0 <= n_lo <= n_max.

    Returns:
        (omega, liouville), both int8: Omega(n) <= 30 < 2**7 for every
        n <= 2**31 - 1.

    Raises:
        InvalidBoundError: unless 0 <= n_lo <= n_max <= 2**31 - 1,
            before anything is allocated.
    """
    if not 0 <= n_lo <= n_max:
        raise InvalidBoundError(f"sieve needs 0 <= n_lo <= n_max, got {n_lo}..{n_max}")
    if n_max > 2**31 - 1:
        raise InvalidBoundError(f"sieve bound must be <= 2**31 - 1 (int32 storage), got {n_max}")

    omega = np.zeros(n_max - n_lo + 1, dtype=np.int8)
    primes = np.flatnonzero(sieve(isqrt(n_max))[0] == 1).tolist() if n_max >= 4 else []
    for lo in range(n_lo, n_max + 1, _SIEVE_SEGMENT):
        hi = min(lo + _SIEVE_SEGMENT - 1, n_max)
        part = omega[lo - n_lo : hi - n_lo + 1]
        cofactor = np.arange(lo, hi + 1, dtype=np.int32)
        first = max(lo, 1)
        for p in primes:
            pk = p
            while pk <= hi:
                start = -(-first // pk) * pk - lo
                part[start::pk] += 1
                cofactor[start::pk] //= p
                pk *= p
        part += cofactor > 1
        del cofactor

    liouville = 1 - 2 * (omega & 1)
    if n_lo == 0:
        liouville[0] = 0
    return omega, liouville


def beta_closed_table(n_max: int, n_lo: int = 0) -> np.ndarray:
    """int8 beta(n) for n_lo <= n <= n_max by the square / twice-square rule.

    Needs no sieve: slot n - n_lo is 1 on squares, -2 on twice-squares,
    else 0, and n = 0 reads 0.
    """
    beta = np.zeros(n_max - n_lo + 1, dtype=np.int8)
    lo = max(n_lo, 1)
    # The least r with r**2 >= lo, and with 2 * r**2 >= lo.
    beta[np.arange(isqrt(lo - 1) + 1, isqrt(n_max) + 1, dtype=np.int64) ** 2 - n_lo] = 1
    twice = np.arange(isqrt((lo + 1) // 2 - 1) + 1, isqrt(n_max // 2) + 1, dtype=np.int64)
    beta[2 * twice**2 - n_lo] = -2
    return beta


def beta_definition_table(liouville: np.ndarray) -> np.ndarray:
    """Divisor-sum route for every n at once.

    liouville holds rows 0..n_max as sieve(n_max) returns it; n_max is
    its length less one.  Accumulates liouville(m) * (-1)**(l+1) into
    slot m*l for all pairs m*l <= n_max.  This enumerates exactly the
    divisor pairs of each n, so it is the definition, vectorized; it
    never consults the square / twice-square rule.  Each step is one
    strided integer add: a row m <= isqrt(n_max) takes its columns l =
    1..n_max // m at once, and the rows above, whose quotients n_max // m
    all lie below isqrt(n_max) + 1, are grouped by column l instead,
    every row m with l <= n_max // m in one add.  The Python loop runs
    about 2 * isqrt(n_max) times.

    Returns:
        int64 array b with b[n] = beta(n) for 1 <= n <= n_max, b[0] = 0.
    """
    n_max = len(liouville) - 1
    acc = np.zeros(n_max + 1, dtype=np.int64)
    alt = np.empty(n_max + 1, dtype=np.int64)
    alt[1::2] = 1
    alt[0::2] = -1
    root = isqrt(n_max)
    for m in range(1, root + 1):
        acc[m::m] += int(liouville[m]) * alt[1 : n_max // m + 1]
    for l in range(1, n_max // (root + 1) + 1):
        last = n_max // l
        acc[l * (root + 1) : l * last + 1 : l] += int(alt[l]) * liouville[root + 1 : last + 1]
    return acc
