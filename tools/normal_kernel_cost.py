"""Per-call cost of the normal kernel's log F(-u) against SciPy's `log_ndtr`.

Both run in one process on the same arrays (u ~ N(0, 1.5^2), n = 500 and
5000); each figure is the best of 15 repeats of 200 calls, in microseconds.

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
        out[f"log_F_neg_n{n}_us"] = round(best_us(lambda: baseline.log_F_neg(u, Kernel.NORMAL)), 2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
