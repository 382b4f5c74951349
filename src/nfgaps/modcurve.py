"""Construction of inverse-pair ("neighbor flips") modular curves.

For an odd modulus q and an integer shift h, the curve is the set of
points (inv(n), inv(n+h)) over all residues n with both n and n+h
invertible mod q.  Points come in two coordinate conventions:

* centered: representatives in [-J, J] with J = (q-1)/2 (the square is
  centered on the origin);
* raw: representatives in [0, q-1].

All arithmetic is exact integer arithmetic, so composite moduli work
uniformly.  Curves are built from one uint32 table of inverses mod q, read
off the powers of a generator of the units mod each prime power of q and
joined by the Chinese remainder theorem, in O(q) steps.  Products of two
residues are formed in int64 and stay below q^2; q must therefore satisfy
q^2 < 2^63, i.e. q <= 3037000499 < 2^32; curves are capped lower, at
POINTS_MAX = 2e7, so that they fit in memory.  uint32 minus or times a Python
int stays uint32 and wraps, so every reader of the table widens it to int64
before it subtracts or multiplies.  The scalar `mod_inverse` has no bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .errors import PreconditionError

__all__ = [
    "CurvePointSet",
    "mod_inverse",
    "mod_inverse_centered",
    "build_curve",
    "build_nf_curve",
    "nf_union",
    "is_prime",
]


def _check_modulus(q: int) -> None:
    if q < 3 or q % 2 == 0:
        raise PreconditionError(
            f"modulus must be an odd integer >= 3 (centered representatives "
            f"are undefined for even moduli); got q={q}"
        )


# The largest modulus whose residue products (below q^2) fit in int64.
ARRAY_MODULUS_MAX = 3037000499


def _check_array_modulus(q: int, flag: str) -> None:
    """Reject q before any array is allocated when q^2 would overflow int64."""
    if q > ARRAY_MODULUS_MAX:
        raise PreconditionError(
            f"{flag} must be at most {ARRAY_MODULUS_MAX} so that products of two "
            f"residues fit in int64; got {q}"
        )


# The most points a curve command holds or writes.  A curve has up to q
# points, and `gaps` traces about 40 bytes per point: 0.8 GB at the cap.
POINTS_MAX = 2 * 10 ** 7
# The largest q whose union over all shifts, q files of q - 2 rows, stays
# within POINTS_MAX rows.
UNION_MODULUS_MAX = 1 + isqrt(POINTS_MAX + 1)


def _check_union(q: int) -> None:
    """Reject q before any table or file when its union over shifts is too large."""
    _check_modulus(q)
    if q > UNION_MODULUS_MAX:
        raise PreconditionError(
            f"--q must be at most {UNION_MODULUS_MAX} with --union, whose q(q - 2) rows "
            f"stay within {POINTS_MAX}; got {q}")


def _factor(n: int) -> dict[int, int]:
    """Prime factorisation {prime: exponent} of n >= 1, by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _unit_generator(p: int, k: int) -> int:
    """A generator of the units mod p^k for an odd prime p.

    The least primitive root g mod p generates the units mod every p^k
    unless g^(p-1) = 1 mod p^2, and then g + p does.  Among the p with
    p^2 <= ARRAY_MODULUS_MAX that happens only for p = 40487 (g = 5).
    """
    cofactors = [(p - 1) // r for r in _factor(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors))
    return g + p if k > 1 and pow(g, p - 1, p * p) == 1 else g


def _prime_power_inverses(p: int, k: int) -> np.ndarray:
    """uint32 table of the inverses mod m = p^k for an odd prime p, 0 at
    every non-unit.

    The units mod m are the powers g^0 .. g^(phi-1) of one generator g, and
    g^i has the inverse g^(phi-i).  One base block g^0 .. g^(L-1), L =
    min(2^16, phi), is filled by doubling ([n, 2n) is [0, n) times g^n); each
    chunk of exponents c .. c+w-1 is then the base times g^c, and its inverses
    the reversed base times g^(phi-c-w+1), scattered into the table.  No array
    of all phi powers is held, and every product stays below m^2.
    """
    m = p ** k
    phi = m - m // p
    g = _unit_generator(p, k)
    base = np.empty(min(1 << 16, phi), dtype=np.int64)
    base[0] = 1
    n = 1
    while n < len(base):
        block = base[n:2 * n]
        np.multiply(base[:len(block)], pow(g, n, m), out=block)
        np.remainder(block, m, out=block)
        n += len(block)
    inv = np.zeros(m, dtype=np.uint32)
    # Fixed buffers, so the chunks do not churn the heap (10,700 page faults at p = 2e6),
    # and three of them: one 1.5 MB block moved glibc's mmap threshold, +0.7 MB gaps-3e5 RSS
    units, inverses, quot = (np.empty(len(base), dtype=np.int64) for _ in range(3))
    for c in range(0, phi, len(base)):
        w = min(len(base), phi - c)
        np.multiply(base[:w], pow(g, c, m), out=units[:w])
        np.multiply(base[w - 1::-1], pow(g, phi - c - w + 1, m), out=inverses[:w])
        for v in units[:w], inverses[:w]:
            v -= np.multiply(np.floor_divide(v, m, out=quot[:w]), m, out=quot[:w])
        inv[units[:w]] = inverses[:w]
    return inv


def _inverse_table(q: int) -> np.ndarray:
    """uint32 table of length q: the inverse of n mod q in [1, q-1] at every
    unit n, 0 at every non-unit.  A reader widens it to int64 before it
    subtracts or multiplies.

    Each prime power m of q gets its own table (`_prime_power_inverses`);
    a table of one prime power is returned as it is.  Otherwise the tables
    are joined by the Chinese remainder theorem, 2^16 residues n at a time:
    each table, tiled until it reaches one chunk past m, gives the inverses
    mod m of a chunk as one slice; widened to int64, they are weighted by the
    residue that is 1 mod m and 0 mod q/m, and the weighted sum is reduced
    mod q.  Every product stays below q^2, so q must pass
    `_check_array_modulus`.
    """
    factors = _factor(q)
    if len(factors) == 1:
        return _prime_power_inverses(*factors.popitem())
    chunk = min(q, 1 << 16)
    parts = []
    for p, k in factors.items():
        m = p ** k
        rest = q // m
        table = np.tile(_prime_power_inverses(p, k), -(-(m + chunk) // m))
        parts.append((table, m, rest * pow(rest, -1, m)))
    inv = np.empty(q, dtype=np.uint32)
    for c in range(0, q, chunk):
        w = min(chunk, q - c)
        total = np.zeros(w, dtype=np.int64)
        units = np.ones(w, dtype=bool)
        for table, m, weight in parts:
            part = table[c % m:c % m + w].astype(np.int64)
            units &= part != 0
            part *= weight
            part %= q
            total += part
        total %= q
        total[~units] = 0
        inv[c:c + w] = total
    return inv


def mod_inverse(n: int, q: int) -> int:
    """Inverse of n mod q as a representative in [0, q-1].

    Raises PreconditionError when gcd(n, q) > 1; never returns a bogus 0.
    """
    if q < 2:
        raise PreconditionError(f"modulus must be >= 2; got q={q}")
    try:
        return pow(n, -1, q)
    except ValueError:
        raise PreconditionError(
            f"{n} is not invertible mod {q} (gcd={gcd(n, q)})"
        ) from None


def mod_inverse_centered(n: int, q: int) -> int:
    """Inverse of n mod q as the centered representative in [-(q-1)/2, (q-1)/2]."""
    _check_modulus(q)
    inv = mod_inverse(n, q)
    return inv - q if inv > (q - 1) // 2 else inv


@dataclass(frozen=True, eq=False)
class CurvePointSet:
    """The integer points of one modular curve, plus its construction metadata.

    `x` and `y` are read-only int64 coordinate arrays; points are sorted by
    the second coordinate (which is injective over the defining residues),
    giving a reproducible on-disk order.  Equality compares the metadata
    and the coordinates.
    """

    q: int
    h: int
    centered: bool
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.x.flags.writeable = False
        self.y.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurvePointSet):
            return NotImplemented
        return ((self.q, self.h, self.centered) == (other.q, other.h, other.centered)
                and np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y))

    def __hash__(self) -> int:
        return hash((self.q, self.h, self.centered))

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        """The points as a fresh tuple of (x, y) Python int pairs."""
        return tuple(zip(self.x.tolist(), self.y.tolist()))

    @property
    def J(self) -> int:
        return (self.q - 1) // 2

    @property
    def count(self) -> int:
        return len(self.x)



def _curve_points(q: int, h: int, centered: bool) -> CurvePointSet:
    _check_modulus(q)
    if q > POINTS_MAX:                 # below ARRAY_MODULUS_MAX, so q^2 fits in int64
        raise PreconditionError(f"--q must be at most {POINTS_MAX} so that the curve's "
                                f"points fit in memory; got {q}")
    h = h % q
    J = (q - 1) // 2
    inv = _inverse_table(q)
    # Walk the second coordinate upwards from lo: position i holds y = lo + i,
    # n + h = inv(y) (0 at a non-unit y) and x = inv(n), read through the table
    # rolled by h, whose entry m is inv(m - h).
    lo = -J if centered else 0
    shifted = np.roll(inv, -lo)
    x = np.roll(inv, h)[shifted]
    keep = shifted != 0
    keep &= x != 0
    del inv, shifted                   # 4 bytes a residue each, before y and x widen
    y = np.flatnonzero(keep)
    y += lo
    x = x[keep].astype(np.int64)
    if centered:
        np.subtract(x, q, out=x, where=x > J)
    return CurvePointSet(q=q, h=h, centered=centered, x=x, y=y)


def build_curve(q: int, h: int) -> CurvePointSet:
    """Centered curve in [-J, J]^2; h is reduced mod q."""
    return _curve_points(q, h, centered=True)


def build_nf_curve(q: int, h: int) -> CurvePointSet:
    """Raw-representative curve in [0, q-1]^2; h is reduced mod q."""
    return _curve_points(q, h, centered=False)


def nf_union(q: int) -> dict[int, CurvePointSet]:
    """All raw curves for h = 0..q-1.

    The point sets are pairwise disjoint and their union is exactly the
    set of pairs (a, b) with both coordinates invertible mod q.
    """
    _check_union(q)
    return {h: build_nf_curve(q, h) for h in range(q)}


# Witness set deterministic for all n < 3.3e24, which covers 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
