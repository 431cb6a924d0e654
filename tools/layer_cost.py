"""Per-call cost of the `ghlik`, `marglik` and `sampler` layers.

`ghlik`: one `ghlik.evaluate` call (value, gradient and Hessian) for models
0000, 1100 and 3333 with the normal kernel and 4040 with t2, at n = 300, 500
and 5000, at each model's maximum-likelihood point.  The data are simulated
with p = 4, general-hazard effects on every variable and 25 % censoring.
Each figure is the best of 5 repeats of 50 calls, in microseconds.

`marglik`: one cold `ModelScorer.score` (a new scorer, so the model is
fitted and scored) for the same models, kernels and datasets, with the
method the benchmark pairs with the kernel: the robust hyper-g ILA for the
normal kernel (`--robust-g`) and the product-prior LA for t2 (`--prior
product`).  Each figure is the best of 5 repeats of 10 scores, in
microseconds.

`sampler`: one `sampler.mh_step` with every score known beforehand, so that
no step fits a model.  The chain runs on an accelerated-failure-time dataset
(n = 300, p = 4) whose 271 models are scored first with the t2 kernel and
the product prior, as `ghsel select --prior product --baseline t2` scores
them.  The step draws from the chain's block reader of the generator, as
`sampler.run_chain` does.  The figure is the best of 3 runs of 50 000 steps
from the null model, in microseconds per step.

All figures are taken with the heap settings of a `ghsel` command
(`cli._keep_freed_heap`); without them, whether glibc hands n = 5000
temporaries back to the system depends on what ran before, which moved
single figures by up to a third.

    PYTHONPATH=src python tools/layer_cost.py [seed]

Prints one JSON line.
"""

import json
import sys
import time
import timeit

import numpy as np

from ghsel import cli, ghlik, optimize, sampler
from ghsel.baseline import Kernel
from ghsel.marglik import MarglikMethod, ModelScorer, ScorerConfig
from ghsel.modelspace import Gamma, enumerate_models, log_model_prior
from ghsel.simulate import SimConfig, simulate_dataset

MODELS = (("0000", Kernel.NORMAL), ("1100", Kernel.NORMAL), ("3333", Kernel.NORMAL),
          ("4040", Kernel.STUDENT_T2))
SCORE_METHODS = {Kernel.NORMAL: MarglikMethod.ILA_ROBUST_G, Kernel.STUDENT_T2: MarglikMethod.LA}
STEPS = 50_000


def evaluate_and_score_us(seed: int) -> dict:
    out = {}
    for n in (300, 500, 5000):
        cfg = SimConfig(n=n, p=4, truth=Gamma.from_key("3333"),
                        alpha=np.array([0.5, -0.5, 0.3, 0.0]),
                        beta=np.array([0.5, 0.3, -0.5, 0.2]),
                        target_censoring=0.25, seed=seed)
        data, _ = simulate_dataset(cfg)
        for key, kernel in MODELS:
            gamma = Gamma.from_key(key)
            psi = optimize.fit_mle(gamma, data, kernel).psi_opt
            des = ghlik.design(gamma, data, kernel)
            best = min(timeit.Timer(lambda: ghlik.evaluate(des, psi)).repeat(5, 50)) / 50
            out[f"evaluate_{key}_{kernel.value}_n{n}_us"] = round(best * 1e6, 1)
            cfg = ScorerConfig(method=SCORE_METHODS[kernel])
            best = min(timeit.Timer(lambda: ModelScorer(data, kernel, cfg).score(gamma))
                       .repeat(5, 10)) / 10
            out[f"score_{key}_{kernel.value}_n{n}_us"] = round(best * 1e6, 1)
    return out


def mh_step_us(seed: int) -> float:
    cfg = SimConfig(n=300, p=4, truth=Gamma.from_key("4040"),
                    alpha=np.array([0.8, 0.0, -0.8, 0.0]),
                    beta=np.array([0.8, 0.0, -0.8, 0.0]),
                    target_censoring=0.25, seed=seed)
    data, _ = simulate_dataset(cfg)
    scorer = ModelScorer(data, Kernel.STUDENT_T2, ScorerConfig(method=MarglikMethod.LA))
    visited = {g.key: (scorer.score(g).log_ml, log_model_prior(g))
               for g in enumerate_models(4)}
    best = float("inf")
    for _ in range(3):
        trace = sampler.ChainTrace(visited=dict(visited))
        rng = sampler._BlockReader(np.random.default_rng(seed))
        gamma = Gamma((0, 0, 0, 0))
        score = sum(visited[gamma.key])
        t0 = time.perf_counter()
        for _ in range(STEPS):
            gamma, score = sampler.mh_step(gamma, score, scorer, rng, trace)
        best = min(best, time.perf_counter() - t0)
    return round(best / STEPS * 1e6, 2)


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    cli._keep_freed_heap()
    out = evaluate_and_score_us(seed)
    out["mh_step_us"] = mh_step_us(seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
