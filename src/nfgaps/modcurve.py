"""Construction of inverse-pair ("neighbor flips") modular curves.

For an odd modulus q and an integer shift h, the curve is the set of
points (inv(n), inv(n+h)) over all residues n with both n and n+h
invertible mod q.  Points come in two coordinate conventions:

* centered: representatives in [-J, J] with J = (q-1)/2 (the square is
  centered on the origin);
* raw: representatives in [0, q-1].

All arithmetic is exact integer arithmetic, so composite moduli work
uniformly and q may be as large as memory allows.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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


@dataclass(frozen=True)
class CurvePointSet:
    """The integer points of one modular curve, plus its construction metadata.

    Points are sorted by the second coordinate (which is injective over the
    defining residues), giving a reproducible on-disk order.
    """

    q: int
    h: int
    centered: bool
    points: tuple[tuple[int, int], ...]

    @property
    def J(self) -> int:
        return (self.q - 1) // 2

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def diagonal(self) -> bool:
        """True when h = 0 mod q, i.e. the curve lies on the line y = x."""
        return self.h % self.q == 0

    def xs(self) -> list[int]:
        return [p[0] for p in self.points]

    def ys(self) -> list[int]:
        return [p[1] for p in self.points]


def _curve_points(q: int, h: int, centered: bool) -> CurvePointSet:
    _check_modulus(q)
    h = h % q
    J = (q - 1) // 2
    pts = []
    for n in range(q):
        if gcd(n, q) != 1 or gcd(n + h, q) != 1:
            continue
        x = pow(n, -1, q)
        y = pow(n + h, -1, q)
        if centered:
            if x > J:
                x -= q
            if y > J:
                y -= q
        pts.append((x, y))
    pts.sort(key=lambda p: p[1])
    return CurvePointSet(q=q, h=h, centered=centered, points=tuple(pts))


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
    _check_modulus(q)
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
