"""Per-call cost of the normal kernel's terms against SciPy's `log_ndtr`.

Times `baseline.newton_terms(u, Kernel.NORMAL)`, the one kernel call each
likelihood pass makes, which gives log f, log F(-u), f/F(-u), f'/f and
f''/f together; `log_ndtr` gives log F(-u) alone.  The single functions
such as `baseline.log_F_neg` are slots of the same five terms and cost about
as much.  Both run in one process on the same arrays (u ~ N(0, 1.5^2),
n = 500 and 5000); each figure is the best of 15 repeats of 200 calls, in
microseconds.

    PYTHONPATH=src python tools/normal_kernel_cost.py [seed]

Needs SciPy, which only the tests and this comparison use.
"""

import json
import sys
import timeit

import numpy as np
from scipy import special

from ghsel import baseline
from ghsel.baseline import Kernel


def best_us(fn):
    return min(timeit.Timer(fn).repeat(15, 200)) / 200 * 1e6


def main():
    rng = np.random.default_rng(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
    out = {}
    for n in (500, 5000):
        u = rng.standard_normal(n) * 1.5
        out[f"scipy_log_ndtr_n{n}_us"] = round(best_us(lambda: special.log_ndtr(-u)), 2)
        out[f"newton_terms_n{n}_us"] = round(best_us(lambda: baseline.newton_terms(u, Kernel.NORMAL)), 2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
