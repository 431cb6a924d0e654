"""Derive the coefficient table behind the normal kernel's tail function.

`baseline` evaluates S(x) = Phi(-x) exp(x^2/2) = erfcx(x/sqrt(2))/2 for
x >= 0 from a table of polynomials.  The map t = (x - C)/(x + C) sends
[0, inf) onto [-1, 1); t is cut into N equal pieces, and on piece j the
smooth function (x + C) S(x), which tends to 1/sqrt(2 pi) as x -> inf, is
the degree-D polynomial in s = N (t + 1)/2 - j (so 0 <= s <= 1) that
interpolates it at the D + 1 Chebyshev points of the piece.  The
interpolation runs in 50-digit arithmetic; only the final coefficients are
rounded to double.  Evaluation therefore needs one division to find the
piece, a Horner pass, and one division by x + C.

Run from the repository root (needs mpmath):

    python tools/normal_tail_table.py

It rewrites src/ghsel/_normal_tail_table.py, then checks the new table
through `baseline._normal_tail` against mpmath at 4500 points in [0, 1e200]
and fails if the relative error of S exceeds 1e-15 anywhere.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

C, N, D = 3.0, 128, 5
SRC = Path(__file__).resolve().parent.parent / "src"
OUT = SRC / "ghsel" / "_normal_tail_table.py"

mp.mp.dps = 50


def tail(x):
    """S(x) = Phi(-x) exp(x^2/2); beyond x = 1e4, where mpmath's erfc gives
    up, its asymptotic series (the first omitted term is below 1e-77)."""
    x = mp.mpf(x)
    if x > 1e4:
        z, term, total = 1 / (x * x), mp.mpf(1), mp.mpf(0)
        for k in range(1, 12):
            total += term
            term *= -(2 * k - 1) * z
        return total / (x * mp.sqrt(2 * mp.pi))
    return mp.erfc(x / mp.sqrt(2)) / 2 * mp.exp(x * x / 2)


def piece(j):
    """Monomial coefficients (powers 0..D of s) of piece j."""
    c = mp.mpf(C)
    rows, vals = [], []
    for k in range(D + 1):
        s = (1 + mp.cos(mp.pi * (k + mp.mpf(0.5)) / (D + 1))) / 2
        t = -1 + 2 * (j + s) / N
        x = c * (1 + t) / (1 - t)
        rows.append([s ** p for p in range(D + 1)])
        vals.append((x + c) * tail(x))
    coef = mp.lu_solve(mp.matrix(rows), mp.matrix(vals))
    return [float(coef[p]) for p in range(D + 1)]


def main():
    pieces = [piece(j) for j in range(N)]
    table = [[pieces[j][p] for j in range(N)] for p in range(D + 1)]
    lines = [
        '"""Coefficient table of the normal kernel\'s tail function S(x) = Phi(-x) exp(x^2/2).',
        "",
        "Generated by tools/normal_tail_table.py, which documents the layout; do not edit.",
        '"""',
        "",
        f"C = {C!r}",
        f"N = {N!r}",
        "",
        "# COEF[p][j]: coefficient of s**p on piece j",
        "COEF = (",
    ]
    for row in table:
        lines.append("    (")
        for k in range(0, N, 3):
            lines.append("        " + " ".join(f"{v!r}," for v in row[k:k + 3]))
        lines.append("    ),")
    lines.append(")")
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # check the table through the package's own evaluator
    sys.path.insert(0, str(SRC))
    from ghsel import baseline

    xs = np.concatenate([np.linspace(0.0, 40.0, 4001), np.geomspace(40.0, 1e200, 499)])
    got = baseline._normal_tail(xs)
    ref = np.array([float(tail(x)) for x in xs])
    worst = float(np.max(np.abs(got / ref - 1.0)))
    print(f"wrote {OUT}: max relative error of S {worst:.3g}")
    return 0 if worst <= 1e-15 else 1


if __name__ == "__main__":
    sys.exit(main())
