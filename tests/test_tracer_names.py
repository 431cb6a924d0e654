"""The benchmark's span tracer (bench/tracer.py) finds every name it wraps,
counts the score path's calls, and leaves the program as it found it."""

from pathlib import Path

import numpy as np

from ghsel import cli, marglik, optimize, sampler
from ghsel.baseline import Kernel
from ghsel.ghlik import Dataset
from ghsel.marglik import MarglikMethod, ModelScorer, ScorerConfig
from ghsel.modelspace import Gamma

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _originals():
    return (marglik.ModelScorer.score, sampler.mh_step, cli._run_replicate,
            marglik.ila_from_fit, optimize.fit_mle, optimize.fit_map,
            # the writers whose spans make up cli.write_s
            cli._write_json, cli._write_probs_csv, cli._write_pip_csv,
            cli._write_trace_jsonl)


def test_tracer_wraps_the_score_path_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    rng = np.random.default_rng(0)
    data = Dataset(t=rng.gamma(2.0, 1.0, 60), delta=np.ones(60),
                   X=rng.standard_normal((60, 2)), names=())
    keys = ("00", "20", "20")  # the last is a memo hit
    originals = _originals()
    spans = tracer.Tracer()
    spans.install()
    try:
        assert all(now is not before for now, before in zip(_originals(), originals))
        for method in MarglikMethod:
            scorer = ModelScorer(data, Kernel.NORMAL, ScorerConfig(method))
            for key in keys:
                scorer.score(Gamma.from_key(key))
    finally:
        spans.uninstall()
    assert all(now is before for now, before in zip(_originals(), originals))
    assert tracer._active is None

    calls = spans.calls
    assert calls["marglik.ModelScorer.score"] == 3 * len(keys)
    assert spans.count["cache_hits"] == 3
    assert calls["optimize.fit_mle"] == 4 and calls["optimize.fit_map"] == 2
    # every fixed-g score and the robust-g null model take the closed form
    assert calls["marglik.ila_from_fit"] == 3


def test_tracer_counts_every_chain_step_and_visited_hit(monkeypatch):
    """The tracer finds the chain's trace in each `mh_step` call, so a step
    whose proposal was scored before counts as a visited hit."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    rng = np.random.default_rng(1)
    data = Dataset(t=rng.gamma(2.0, 1.0, 60), delta=np.ones(60),
                   X=rng.standard_normal((60, 2)), names=())
    spans = tracer.Tracer()
    spans.install()
    try:
        trace = sampler.run_chain(ModelScorer(data, Kernel.NORMAL, ScorerConfig()),
                                  sampler.ChainConfig(iterations=200, burn_in=50, seed=0))
    finally:
        spans.uninstall()
    assert spans.calls["sampler.mh_step"] == trace.n_steps == 200
    assert 0 < spans.count["visited_hits"] < trace.n_steps
