"""Derive the closed-form branch of G(t, lambda) on one tile with sympy.

    PYTHONPATH=src python tools/derive_branches.py 1.45 1.8

G is twice the volume of the limit region of nfgaps.omega.  With
s = t/(4x) it reads G = (t/2) int_{t/2}^oo F(s) ds / s^2, where F(s) is the
integral over y_0 of the product, over every row j whose window can meet
the cube, of the length that window leaves of [-1/2, 1/2].  At a sample
point (t0, lam0) the script orders every kink of that integrand, integrates
each piece exactly in t and lambda, and prints the branch as the
coefficient table of nfgaps.limitdist (den, poly, log_2t, logs, poles),
followed, for t0 >= 1, by limit_G at the sample point for comparison (for
t >= 2 limitdist reads the branch as Phi(t (lam - 1)), not as a table).
The table holds on the whole tile around the sample point; a sample where
two kinks meet is rejected.
"""
from __future__ import annotations

import math
import sys

import sympy as sp

t, lam, s, y = sp.symbols("t lam s y", positive=True)
L2T = sp.Symbol("L2T")  # stands for log(2/t)
HALF = sp.Rational(1, 2)


def _kinks(rows):
    """y_0 kinks as (c, k): y_0 = c + k s, the cube faces included (k = 0)."""
    out = {(-HALF, sp.Integer(0)), (HALF, sp.Integer(0))}
    for j in rows:
        for k in (lam - j, sp.Integer(-j)):
            out |= {(-HALF, k), (HALF, k)}
    return sorted(out, key=str)


def _s_cuts(kinks, t0, l0):
    """Where two y_0 kinks meet, as d = 1/s, descending (s ascending) past t0/2."""
    ds = {}
    for c1, k1 in kinks:
        for c2, k2 in kinks:
            if c1 != c2:
                d = sp.expand((k2 - k1) / (c1 - c2))
                dv = float(d.subs(lam, l0))
                if 0 < dv < 2 / t0:
                    ds[d] = dv
    order = sorted(ds.items(), key=lambda kv: -kv[1])
    if any(a[1] - b[1] < 1e-9 for a, b in zip(order, order[1:])) or \
            any(abs(dv - 2 / t0) < 1e-9 for dv in ds.values()):
        raise SystemExit("two kinks meet at the sample point; move it off the boundary")
    return [d for d, _ in order]


def _row_factor(j, ym, sm, l0):
    """What row j's window leaves of [-1/2, 1/2] near (y_0, s) = (ym, sm)."""
    a, b = ym + (j - l0) * sm, ym + j * sm
    if b <= -0.5 or a >= 0.5:
        return sp.Integer(1)
    if a <= -0.5 and b >= 0.5:
        return sp.Integer(0)
    if a <= -0.5:
        return HALF - (y + j * s)
    if b >= 0.5:
        return HALF + y + (j - lam) * s
    return 1 - lam * s


def _over_y0(rows, kinks, sm, l0):
    """F as a polynomial in s on the s-interval containing sm."""
    pts = sorted((float(c) + float(k.subs(lam, l0)) * sm, c + k * s) for c, k in kinks)
    pts = [p for p in pts if -0.5 - 1e-12 <= p[0] <= 0.5 + 1e-12]
    total = sp.Integer(0)
    for (pv, ps), (qv, qs) in zip(pts, pts[1:]):
        if qv - pv <= 1e-12:
            continue
        f = sp.Mul(*(_row_factor(j, (pv + qv) / 2, sm, l0) for j in rows))
        if f != 0:
            prim = sp.integrate(sp.expand(f), y)
            total += prim.subs(y, qs) - prim.subs(y, ps)
    return sp.Poly(sp.expand(total), s)


def _primitive(P, d):
    """Primitive of P(s)/s^2 at s = 1/d; d = None stands for s = t/2."""
    out = sp.Integer(0)
    for (k,), pk in P.terms():
        if k == 1:
            out += -pk * (L2T if d is None else sp.log(d))
        elif d is None:
            out += pk * (t / 2) ** (k - 1) / (k - 1)
        else:
            out += pk / ((k - 1) * d ** (k - 1))
    return out


def derive(t0: float, l0: float) -> sp.Expr:
    """G on the tile containing (t0, l0), with L2T standing for log(2/t)."""
    rows = [j for j in range(-int(2 / t0), int(l0 + 2 / t0) + 1) if j != 0]
    kinks = _kinks(rows)
    cuts = [None] + _s_cuts(kinks, t0, l0) + [0]
    svals = [t0 / 2] + [1 / float(d.subs(lam, l0)) for d in cuts[1:-1]] + [math.inf]
    G = sp.Integer(0)
    for i in range(len(cuts) - 1):
        lo, hi = svals[i], svals[i + 1]
        P = _over_y0(rows, kinks, (lo + hi) / 2 if hi < math.inf else 2 * lo + 1, l0)
        if hi == math.inf:
            assert P.degree() <= 0, "F must be constant for large s"
            G -= _primitive(P, cuts[i])
        else:
            G += _primitive(P, cuts[i + 1]) - _primitive(P, cuts[i])
    return sp.expand(t / 2 * G)


def table(G: sp.Expr) -> dict:
    """Split G into the coefficient table of nfgaps.limitdist."""
    logs, rest = {}, G
    for atom in [L2T] + sorted(G.atoms(sp.log), key=str):
        coef = sp.expand(rest).coeff(atom)
        if coef != 0:
            logs[atom] = sp.Poly(coef, lam)
            rest = sp.expand(rest - coef * atom)
    poly, poles = sp.Integer(0), {}
    for term in sp.Add.make_args(sp.apart(sp.together(rest), lam)):
        den = sp.fraction(sp.together(term))[1]
        if den.has(lam):
            (k,) = sp.solve(den, lam)
            poles[k] = poles.get(k, 0) + sp.simplify(term * (lam - k))
        else:
            poly += term
    poly = sp.Poly(sp.expand(poly), lam)
    coefs = poly.all_coeffs() + list(poles.values())
    coefs += [c for p in logs.values() for c in p.all_coeffs()]
    den = sp.ilcm(*[sp.fraction(sp.together(term))[1]
                    for c in coefs for term in sp.Add.make_args(sp.expand(c))])

    def scaled(c):
        return sp.expand(den * c)

    log_2t = logs.pop(L2T, sp.Poly(0, lam))
    return {
        "den": den,
        "poly": [scaled(poly.coeff_monomial(lam ** k)) for k in range(poly.degree() + 1)],
        "log_2t": (scaled(log_2t.coeff_monomial(1)), scaled(log_2t.coeff_monomial(lam))),
        "logs": [(scaled(p.coeff_monomial(1)), scaled(p.coeff_monomial(lam)),
                  atom.args[0].subs(lam, 0), atom.args[0].coeff(lam))
                 for atom, p in logs.items()],
        "poles": [(scaled(c), k) for k, c in poles.items()],
    }


if __name__ == "__main__":
    from nfgaps import classify_region, limit_G

    t0, l0 = float(sys.argv[1]), float(sys.argv[2])
    G = derive(t0, l0)
    for key, value in table(G).items():
        print(f"{key}: {value}")
    value = float(G.subs(L2T, math.log(2 / t0)).subs({t: t0, lam: l0}))
    print(f"G({t0}, {l0}) = {value!r}")
    if t0 >= 1.0:                    # limitdist has no closed form below t = 1
        print(f"limit_G = {limit_G(t0, l0)!r} ({classify_region(t0, l0).value})")
