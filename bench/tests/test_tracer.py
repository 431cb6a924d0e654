"""The tracer counts what the program did and leaves it as it found it."""

import contextlib
import io
import json

from ghsel import cli, marglik, modelspace, sampler

import tracer as tracing
from datagen import Truth, generate, write_csv


def test_traced_select_counts_add_up(tmp_path):
    time, status, X = generate([3, 0], 200, 3, Truth("020", (0.0,) * 3, (0.0, 1.0, 0.0)))
    write_csv(tmp_path / "d.csv", time, status, X)
    originals = (sampler.mh_step, marglik.ModelScorer.score, modelspace.classify)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["select", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o"),
                      "--iters", "300", "--burnin", "100", "--seed", "1"])
    finally:
        tracer.uninstall()
    assert (sampler.mh_step, marglik.ModelScorer.score, modelspace.classify) == originals

    m = tracer.metrics(wall_s=1.0, workers=1,
                       trace_bytes=(tmp_path / "o" / "trace.jsonl").stat().st_size)
    assert m["sampler.steps"] == 300
    misses = m["marglik.score_calls"] - m["marglik.cache_hits"]
    assert misses == m["optimize.fits"] == m["marglik.closed_form_evals"]
    assert 0 < m["sampler.visited_hits"] < m["sampler.steps"]
    assert m["optimize.evals_per_fit"] > 1
    assert m["modelspace.classify_calls"] > m["ghlik.loglik_calls"] > 0
    assert m["cli.trace_bytes"] > 0 and m["replicate.pool_busy_ratio"] == 0.0
    assert set(m) == set(tracing.UNITS)
    json.dumps(m)  # plain numbers only: the result line is JSON
