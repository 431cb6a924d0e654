"""Per-call cost of each kernel's terms, and of SciPy's `log_ndtr` beside the
normal kernel's.

Times `baseline.newton_terms(u, kernel)`, the one kernel call each
likelihood pass makes, which gives log f, log F(-u), f/F(-u), f'/f and
f''/f together, for all four kernels; `log_ndtr` gives the normal log F(-u)
alone.  All run in one process on the same arrays (u ~ N(0, 1.5^2), n = 300,
500 and 5000: the sizes of the `aft-p4-chain`, `replicate-ah-w2` and
`gh-n5000-p4-robustg` benchmark workloads); each figure is the best of 15
repeats of 200 calls, in microseconds.

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
    for n in (300, 500, 5000):
        u = rng.standard_normal(n) * 1.5
        out[f"scipy_log_ndtr_n{n}_us"] = round(best_us(lambda: special.log_ndtr(-u)), 2)
        for kernel in Kernel:
            out[f"newton_terms_{kernel.value}_n{n}_us"] = round(
                best_us(lambda: baseline.newton_terms(u, kernel)), 2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
