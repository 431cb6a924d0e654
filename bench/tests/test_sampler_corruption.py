"""The enumeration checks catch a realistic sampler fault: a chain that
leaves out its Hastings term, on an `aft-p4-chain` dataset."""

import contextlib
import csv
import dataclasses
import io
import json
import math

import pytest

from ghsel import cli, sampler

import checks
from datagen import generate, write_csv
from workloads import WORKLOADS

AFT = WORKLOADS["aft-p4-chain"]


def _no_hastings(propose):
    def wrapped(gamma, rng):
        prop = propose(gamma, rng)
        if prop.log_hastings == -math.inf:
            return prop
        return dataclasses.replace(prop, log_hastings=0.0)
    return wrapped


def test_chain_without_hastings_term_fails(tmp_path, monkeypatch):
    time, status, X = generate((1, 0), AFT.n, AFT.p, AFT.truth)
    data = str(tmp_path / "d.csv")
    write_csv(data, time, status, X)
    chain = ["--seed", "100", "--iters", "30000", "--burnin", "5000"]

    def select(out):
        cli.main(["select", data, "--out", str(out), *AFT.model_flags, *chain])
        trace = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        return [json.loads(line)["gamma"] for line in trace]

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["enumerate", data, "--out", str(tmp_path / "e.csv"), *AFT.model_flags])
        with open(tmp_path / "e.csv", newline="", encoding="utf-8") as fh:
            exact = checks.read_enumeration(list(csv.reader(fh)))
        checks.check_visit_frequencies(select(tmp_path / "ok"), exact)
        monkeypatch.setattr(sampler, "propose", _no_hastings(sampler.propose))
        samples = select(tmp_path / "bad")
    with pytest.raises(checks.CheckFailed, match="errors off"):
        checks.check_visit_frequencies(samples, exact)
