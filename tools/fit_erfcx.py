"""Fit the rational P/Q to erfcx(z) = exp(z**2) * erfc(z) that ``anomix._special.ndtr`` uses.

    python tools/fit_erfcx.py [--degrees 9 10] [--upper 27] [--points 400] [--rounds 40]

Needs mpmath.  Q's constant term is fixed at 1.  Each round solves, in
40-digit arithmetic, the linearised least-squares problem
``P(z) - erfcx(z) Q(z) ~ 0`` at Chebyshev points of [0, upper], each row
divided by ``erfcx(z)`` and the last round's ``Q(z)`` (Loeb's iteration), and
weighted by Lawson's multiplicative update toward the minimax relative
error.  It prints the round with the smallest largest relative error and
its coefficients, constant term first, as ``repr`` of the nearest doubles.
With the defaults (about two minutes) that error is 5.1e-17.
"""

from __future__ import annotations

import argparse

import mpmath as mp


def fit(num_degree: int, den_degree: int, upper: float, points: int, rounds: int):
    mp.mp.dps = 40
    zs = [mp.mpf(upper) / 2 * (1 - mp.cos(mp.pi * (i + mp.mpf(1) / 2) / points)) for i in range(points)]
    zs = [mp.mpf(0)] + zs + [mp.mpf(upper)]
    fs = [mp.erfc(z) * mp.exp(z * z) for z in zs]
    weights, last_q = [mp.mpf(1)] * len(zs), [mp.mpf(1)] * len(zs)
    best = None
    for _ in range(rounds):
        rows, rhs = [], []
        for z, f, weight, q in zip(zs, fs, weights, last_q):
            s = mp.sqrt(weight) / (f * q)
            rows.append([s * z**k for k in range(num_degree + 1)] + [-s * f * z**k for k in range(1, den_degree + 1)])
            rhs.append(s * f)
        x, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        p = [x[k] for k in range(num_degree + 1)]
        q = [mp.mpf(1)] + [x[num_degree + k] for k in range(1, den_degree + 1)]
        last_q = [mp.polyval(q[::-1], z) for z in zs]
        errors = [abs(mp.polyval(p[::-1], z) / qz - f) / f for z, f, qz in zip(zs, fs, last_q)]
        if best is None or max(errors) < best[0]:
            best = (max(errors), p, q)
        total = mp.fsum(w * e for w, e in zip(weights, errors))
        weights = [w * e / total for w, e in zip(weights, errors)]
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degrees", type=int, nargs=2, default=(9, 10), metavar=("P", "Q"))
    parser.add_argument("--upper", type=float, default=27.0)
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    error, p, q = fit(*args.degrees, args.upper, args.points, args.rounds)
    print(f"largest relative error {mp.nstr(error, 3)}")
    print("P =", [float(c) for c in p])
    print("Q =", [float(c) for c in q])


if __name__ == "__main__":
    main()
