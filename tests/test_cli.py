import ast
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghsel
import oracles
from ghsel import cli
from ghsel.baseline import Kernel
from ghsel.cli import CliError, main, read_dataset, write_dataset
from ghsel.ghlik import Dataset, dim_psi
from ghsel.marglik import ModelScorer, ScorerConfig
from ghsel.modelspace import Gamma, classify
from ghsel.sampler import ChainConfig, ChainTrace, run_chain


def write_csv(path, rows, header=("time", "status", "x1", "x2")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_read_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    data = Dataset(t=rng.gamma(2, 1, 10), delta=(rng.random(10) < 0.5).astype(float),
                   X=rng.standard_normal((10, 2)), names=("a", "b"))
    path = tmp_path / "d.csv"
    write_dataset(str(path), data)
    back = read_dataset(str(path))
    assert np.allclose(back.t, data.t)
    assert np.allclose(back.delta, data.delta)
    assert np.allclose(back.X, data.X)
    assert back.names == ("a", "b")


def test_read_dataset_standardizes(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, [[1.0, 1, 10.0, 5.0], [2.0, 0, 20.0, 5.0],
                     [3.0, 1, 30.0, 5.0]])
    opts = cli.resolve_options(cli.build_parser().parse_args(["select", str(path)]))
    d = cli._scorer(read_dataset(str(path)), opts).data
    assert np.allclose(d.X[:, 0].mean(), 0.0)
    assert np.allclose(d.X[:, 0].std(), 1.0)
    # constant column left untouched rather than dividing by zero
    assert np.allclose(d.X[:, 1], 0.0)


def test_read_dataset_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, [[1.0, 1, 0.1, 0.2], [-1.0, 1, 0.1, 0.2]])
    with pytest.raises(CliError, match=":3"):
        read_dataset(str(path))
    write_csv(path, [[1.0, 2, 0.1, 0.2]])
    with pytest.raises(CliError, match="status"):
        read_dataset(str(path))
    write_csv(path, [[1.0, 1, 0.1]])
    with pytest.raises(CliError, match="expected 4 fields"):
        read_dataset(str(path))
    write_csv(path, [], header=("wrong", "header"))
    with pytest.raises(CliError, match="header"):
        read_dataset(str(path))


def run(args):
    return main([str(a) for a in args])


def test_unusable_inputs_are_load_errors(tmp_path, capsys):
    """A CSV without covariate columns, a non-finite covariate, a covariate
    name given twice and a missing data or config file stop `select` with
    exit code 2 and one error line."""
    no_x = tmp_path / "no_x.csv"
    write_csv(no_x, [[1.0, 1], [2.0, 1], [3.0, 0]], header=("time", "status"))
    inf_x = tmp_path / "inf_x.csv"
    write_csv(inf_x, [[1.0, 1, 0.5, 1.0], [2.0, 1, float("inf"), 2.0]])
    dup = tmp_path / "dup.csv"
    write_csv(dup, FIVE_ROWS, header=("time", "status", "a", "a", "b"))
    with pytest.raises(CliError, match="no covariate columns"):
        read_dataset(str(no_x))
    with pytest.raises(CliError, match=":3: covariates must be finite"):
        read_dataset(str(inf_x))
    with pytest.raises(CliError, match="dup.csv: duplicate covariate name 'a'"):
        read_dataset(str(dup))
    out = tmp_path / "out"
    for argv in ([no_x], [inf_x], [dup], [tmp_path / "missing.csv"],
                 [inf_x, "--config", tmp_path / "missing.cfg"]):
        assert run(["select", *argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_simulate_and_truth_sidecar(tmp_path):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--out", out, "--n", 80, "--p", 4,
                "--truth", "ph", "--censoring", "0.2", "--seed", 3]) == 0
    truth = json.loads((tmp_path / "sim.truth.json").read_text())
    assert set(truth) >= {"gamma", "alpha", "beta", "baseline"}
    assert truth["gamma"] == "2220"
    d = read_dataset(str(out))
    assert d.n == 80 and d.p == 4
    assert d.n_events == 64


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["simulate", "--out", out, "--n", 50, "--p", 4, "--seed", 7])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.truth.json").read_bytes() == \
        (tmp_path / "b.truth.json").read_bytes()


def test_enumerate_cap_and_table(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    run(["simulate", "--out", sim, "--n", 60, "--p", 2, "--truth", "ph",
         "--seed", 1])
    out_csv = tmp_path / "enum.csv"
    assert run(["enumerate", sim, "--out", out_csv]) == 0
    rows = list(csv.DictReader(open(out_csv)))
    assert len(rows) == 19
    posts = [float(r["posterior"]) for r in rows]
    assert sum(posts) == pytest.approx(1.0, abs=1e-12)
    assert posts == sorted(posts, reverse=True)
    assert {"gamma", "class", "log_ml", "log_prior", "posterior"} <= set(rows[0])


def test_enumerate_cap_enforced(tmp_path, capsys):
    sim = tmp_path / "big.csv"
    run(["simulate", "--out", sim, "--n", 30, "--p", 9, "--seed", 0])
    assert run(["enumerate", sim]) == 2
    assert "cap" in capsys.readouterr().err


def test_select_outputs(tmp_path):
    sim = tmp_path / "sim.csv"
    run(["simulate", "--out", sim, "--n", 120, "--p", 2, "--truth", "ph",
         "--censoring", "0.2", "--seed", 5])
    out = tmp_path / "run"
    assert run(["select", sim, "--out", out, "--iters", "1500",
                "--burnin", "500", "--thin", "2", "--seed", 2]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for key in ("model_probs_frequency", "model_probs_renormalized",
                "hazard_probs", "pip_any", "pip_by_role", "hpm_set",
                "top_model", "top_model_coefficients", "acceptance_rate"):
        assert key in summary
    assert sum(summary["model_probs_renormalized"].values()) == pytest.approx(1.0)
    coef = summary["top_model_coefficients"]
    assert set(coef) == {"psi", "natural"}
    assert set(coef["natural"]) == {"mu", "sigma", "alpha", "beta"}
    # trace lines carry the documented fields
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 500
    rec = json.loads(lines[0])
    assert {"iter", "gamma", "class", "log_ml", "log_prior"} <= set(rec)
    # tables exist and parse
    probs = list(csv.DictReader(open(out / "model_probs.csv")))
    assert float(sum(float(r["prob_renormalized"]) for r in probs)) == \
        pytest.approx(1.0)
    pips = list(csv.DictReader(open(out / "pip.csv")))
    assert len(pips) == 2


def test_select_deterministic(tmp_path):
    sim = tmp_path / "sim.csv"
    run(["simulate", "--out", sim, "--n", 80, "--p", 2, "--seed", 4])
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        run(["select", sim, "--out", out, "--iters", "800", "--burnin", "200",
             "--seed", 9])
        outs.append((out / "summary.json").read_bytes()
                    + (out / "trace.jsonl").read_bytes()
                    + (out / "model_probs.csv").read_bytes())
    assert outs[0] == outs[1]


def test_model_probs_do_not_depend_on_hash_seed(tmp_path):
    """Rows of equal probability (here the many that underflow to 0) are
    ordered by key, so model_probs.csv does not depend on string hashing."""
    rng = np.random.default_rng(0)
    n = 500
    X = rng.standard_normal((n, 3))
    t = np.exp(2.0 * X[:, 0] + 0.02 * rng.standard_normal(n))
    status = (rng.random(n) < 0.8).astype(int)
    sim = tmp_path / "strong.csv"
    write_csv(sim, [[float(t[i]), int(status[i]), *map(float, X[i])]
                    for i in range(n)], header=("time", "status", "a", "b", "c"))
    env = {**os.environ, "PYTHONPATH": str(Path(ghsel.__file__).parents[1])}
    tables = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"run{hash_seed}"
        subprocess.run([sys.executable, "-m", "ghsel.cli", "select", str(sim),
                        "--out", str(out), "--iters", "300", "--burnin", "100",
                        "--seed", "3"], env={**env, "PYTHONHASHSEED": hash_seed},
                       capture_output=True, check=True)
        tables.append((out / "model_probs.csv").read_text())
    rows = list(csv.DictReader(tables[0].splitlines()))
    assert sum(float(r["prob_renormalized"]) == 0.0 for r in rows) >= 2
    assert tables[0] == tables[1]


def test_data_without_events_is_rejected(tmp_path, capsys):
    path = tmp_path / "censored.csv"
    write_csv(path, [[1.0 + i, 0, 0.1 * i, (-1) ** i] for i in range(20)])
    with pytest.raises(CliError, match="no events"):
        read_dataset(str(path))
    for command in ("select", "enumerate"):
        assert run([command, path, "--out", tmp_path / command]) == 2
        assert "no events" in capsys.readouterr().err


def test_data_with_one_event_is_rejected(tmp_path, capsys):
    """With one event even the two-parameter null model cannot be fitted."""
    path = tmp_path / "one_event.csv"
    write_csv(path, [[1.0 + i, int(i == 7), 0.1 * i, (-1) ** i] for i in range(20)])
    with pytest.raises(CliError, match="only one event"):
        read_dataset(str(path))
    for command in ("select", "enumerate"):
        assert run([command, path, "--out", tmp_path / command]) == 2
        assert "only one event" in capsys.readouterr().err


def test_data_on_which_no_model_can_be_fitted_is_rejected(tmp_path, capsys):
    """Two events 2e-16 apart in log time and no other data: the null
    model's likelihood grows as its scale shrinks, so its fit fails, and so
    does every other model's; both commands stop with a message."""
    path = tmp_path / "tied.csv"
    write_csv(path, [[1.0, 1, 0.0], [math.exp(2.220446049250313e-16), 1, 0.0]],
              header=("time", "status", "x"))
    assert run(["select", path, "--out", tmp_path / "select"]) == 2
    assert "initial model 0 has an impossible score" in capsys.readouterr().err
    assert run(["enumerate", path]) == 2
    assert "no model could be fitted" in capsys.readouterr().err


def _fail_each_command(tmp_path, monkeypatch, table, out_dir, report):
    """`enumerate --out table` and `select --out out_dir` on data no model can
    be fitted to, and `replicate --out report` with every replicate failing:
    each stops with exit 2."""
    path = tmp_path / "tied.csv"
    write_csv(path, [[1.0, 1, 0.0], [math.exp(2.220446049250313e-16), 1, 0.0]],
              header=("time", "status", "x"))
    assert run(["enumerate", path, "--out", table]) == 2
    assert run(["select", path, "--out", out_dir]) == 2

    def failing(*args, **kwargs):
        raise ValueError("no chain")

    monkeypatch.setattr(cli.sampler, "run_chain", failing)
    assert run(["replicate", "--reps", "2", "--n", 50, "--p", 2, "--iters", "100",
                "--burnin", "10", "--out", report]) == 2


def test_failed_command_removes_the_output_it_created(tmp_path, capsys, monkeypatch):
    """A failed command leaves none of the files or directories it created."""
    _fail_each_command(tmp_path, monkeypatch, tmp_path / "e.csv",
                       tmp_path / "new" / "dirs" / "select", tmp_path / "rep.json")
    assert "all replicates failed" in capsys.readouterr().err
    assert sorted(q.name for q in tmp_path.iterdir()) == ["tied.csv"]


def test_failed_command_keeps_an_output_that_existed_before(tmp_path, monkeypatch):
    """A failed command removes nothing that was there before it ran."""
    table, out_dir, report = tmp_path / "e.csv", tmp_path / "select", tmp_path / "rep.json"
    table.write_text("old\n")
    report.write_text("old\n")
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("keep\n")
    _fail_each_command(tmp_path, monkeypatch, table, out_dir, report)
    assert table.is_file() and report.is_file()
    assert [q.name for q in out_dir.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("command", ["enumerate", "replicate"])
def test_out_file_is_replaced_only_on_success(tmp_path, monkeypatch, command):
    """`enumerate --out F` and `replicate --out F` write F through a
    temporary file beside it: a failed command leaves an existing F as it
    was, a successful one replaces it, and neither leaves the temporary file."""
    out = tmp_path / "out.txt"
    out.write_text("old table\n")
    if command == "enumerate":
        bad, good = tmp_path / "tied.csv", tmp_path / "five.csv"
        write_csv(bad, [[1.0, 1, 0.0], [math.exp(2.220446049250313e-16), 1, 0.0]],
                  header=("time", "status", "x"))
        write_csv(good, FIVE_ROWS, header=("time", "status", "a", "b", "c"))
        failed, ok = ["enumerate", bad, "--out", out], ["enumerate", good, "--out", out]
    else:
        argv = ["replicate", "--reps", "2", "--n", 50, "--p", 2, "--iters", "100",
                "--burnin", "10", "--out", out]
        failed, ok = argv, argv
    with monkeypatch.context() as patch:
        if command == "replicate":
            patch.setattr(cli.sampler, "run_chain", lambda *a, **k: 1 / 0)
        assert run(failed) == 2
    assert out.read_text() == "old table\n"
    assert [q.name for q in tmp_path.iterdir() if q.name.startswith(".")] == []
    assert run(ok) == 0
    assert out.read_text().startswith("gamma," if command == "enumerate" else "{")
    assert [q.name for q in tmp_path.iterdir() if q.name.startswith(".")] == []


def test_header_only_csv_is_rejected(tmp_path, capsys):
    path = tmp_path / "header.csv"
    write_csv(path, [])
    with pytest.raises(CliError, match="no data rows"):
        read_dataset(str(path))
    assert run(["select", path, "--out", tmp_path / "out"]) == 2
    assert "no data rows" in capsys.readouterr().err


# 5 rows, 4 events, p = 3
FIVE_ROWS = [[1.3, 1, 0.5, -1.2, 0.3], [2.1, 1, -0.7, 0.4, 1.1], [0.6, 1, 1.4, 0.9, -0.8],
             [3.5, 0, -0.2, -0.6, 0.2], [1.9, 1, 0.1, 1.5, -1.4]]


def test_models_with_more_parameters_than_events_get_no_mass(tmp_path, capsys):
    """5 rows, 4 events, p = 3: every model with more than 4 parameters
    (2 + its coefficients) scores -inf, in the exact table and in a chain."""
    path = tmp_path / "tiny.csv"
    write_csv(path, FIVE_ROWS, header=("time", "status", "a", "b", "c"))
    assert run(["enumerate", path]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 71
    for row in rows:
        too_many = dim_psi(Gamma.from_key(row["gamma"])) > 4
        assert (float(row["log_ml"]) == -math.inf) is too_many, row["gamma"]
        assert (float(row["posterior"]) == 0.0) is too_many, row["gamma"]
    out = tmp_path / "run"
    assert run(["select", path, "--out", out, "--iters", 2000, "--burnin", 500]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert dim_psi(Gamma.from_key(summary["top_model"])) <= 4
    assert all(prob == 0.0 for key, prob in summary["model_probs_renormalized"].items()
               if dim_psi(Gamma.from_key(key)) > 4)


def test_trace_lines_are_sorted_json_records(tmp_path):
    """Over two chains, every trace line is json.dumps(..., sort_keys=True)
    of the record it holds."""
    sim = tmp_path / "sim.csv"
    run(["simulate", "--out", sim, "--n", 80, "--p", 2, "--seed", 4])
    out = tmp_path / "run"
    assert run(["select", sim, "--out", out, "--iters", "600", "--burnin", "100",
                "--chains", "2", "--seed", 9]) == 0
    lines = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert len(lines) == 500 and {r["chain"] for r in records} == {0, 1}
    for line, record in zip(lines, records):
        assert line == json.dumps(record, sort_keys=True)


def test_trace_writer_matches_reference_writer(tmp_path):
    """The per-model fragments give the bytes of one json.dumps per sample,
    for a two-chain run and for a failed model (log_ml = -inf)."""
    rng = np.random.default_rng(0)
    data = Dataset(t=rng.gamma(2, 1, 40), delta=(rng.random(40) < 0.8).astype(float),
                   X=rng.standard_normal((40, 2)), names=("a", "b"))
    chains = run_chain(ModelScorer(data, Kernel.NORMAL, ScorerConfig()),
                       ChainConfig(iterations=400, burn_in=100, n_chains=2, seed=5))
    failed = ChainTrace(samples=[(0, 10, "00"), (0, 12, "30"), (1, 10, "30"),
                                 (1, 12, "44"), (1, 14, "00")],
                        visited={"00": (-12.5, -1.0), "30": (-math.inf, -3.25),
                                 "44": (-577.8080000000001, -2.0794415416798357)})
    for name, trace in (("chains", chains), ("failed", failed)):
        cli._write_trace_jsonl(str(tmp_path / f"{name}.jsonl"), trace)
        oracles.write_trace_jsonl(str(tmp_path / f"{name}.ref.jsonl"), trace)
        written = (tmp_path / f"{name}.jsonl").read_bytes()
        assert written == (tmp_path / f"{name}.ref.jsonl").read_bytes()
    assert written.count(b'"log_ml": -Infinity') == 2


_SCIPY_PROBE = """
import json, os, sys
import ghsel.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


run_replicate = ghsel.cli._run_replicate


def _run_replicate(job):
    # each replicate reports what the process that ran it holds afterwards
    result = run_replicate(job)
    # one write of under PIPE_BUF bytes: the workers' lines cannot interleave
    os.write(1, ("worker " + json.dumps(scipy_modules()) + "\\n").encode())
    return result


ghsel.cli._run_replicate = _run_replicate
if len(sys.argv) > 1:
    assert ghsel.cli.main(sys.argv[1:]) == 0
print("main", json.dumps(scipy_modules()))
"""


def _scipy_probe(*argv):
    """Run the CLI in a fresh process; the SciPy modules loaded at its end in
    the main process and, after each replicate, in the process that ran it."""
    env = {**os.environ, "PYTHONPATH": str(Path(ghsel.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *map(str, argv)],
                          env=env, capture_output=True, text=True, check=True)
    loaded = {"main": [], "worker": []}
    for line in done.stdout.splitlines():
        who, _, modules = line.partition(" ")
        if who in loaded:
            loaded[who].append(json.loads(modules))
    return loaded


def test_no_command_loads_scipy(tmp_path):
    """Importing the CLI, a normal-kernel robust-g select, a logistic select,
    simulate, and a two-worker replicate (in the parent and in each worker)
    all end with no SciPy module loaded."""
    sim = tmp_path / "sim.csv"
    chain = ("--iters", 200, "--burnin", 50)
    probes = {  # simulate first: the two selects read its output
        "import": (),
        "simulate": ("simulate", "--out", sim, "--n", 60, "--p", 2, "--seed", 1),
        "robust-g": ("select", sim, "--out", tmp_path / "robust", "--robust-g", *chain),
        "logistic": ("select", sim, "--out", tmp_path / "logistic",
                     "--baseline", "logistic", *chain),
        "replicate": ("replicate", "--reps", 2, "--workers", 2, "--n", 60, "--p", 2,
                      "--out", tmp_path / "rep.json", *chain),
    }
    for name, argv in probes.items():
        loaded = _scipy_probe(*argv)
        assert loaded["main"] == [[]], name
        assert all(modules == [] for modules in loaded["worker"]), name
    assert len(loaded["worker"]) == 2


def test_package_source_imports_no_scipy():
    """No module of the package imports SciPy, at any depth of its code."""
    src = Path(ghsel.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iters=900\nburnin=300\nseed=4\nbaseline=logistic\n")
    ap = cli.build_parser()
    args = ap.parse_args(["select", "x.csv", "--config", str(cfg),
                          "--seed", "7"])
    opts = cli.resolve_options(args)
    assert opts["iters"] == 900
    assert opts["burnin"] == 300
    assert opts["baseline"] == "logistic"
    assert opts["seed"] == 7  # CLI wins over file
    bad = tmp_path / "bad.cfg"
    bad.write_text("not-a-kv-line\n")
    args = ap.parse_args(["select", "x.csv", "--config", str(bad)])
    with pytest.raises(CliError):
        cli.resolve_options(args)
    unknown = tmp_path / "unk.cfg"
    unknown.write_text("nonsense=1\n")
    args = ap.parse_args(["select", "x.csv", "--config", str(unknown)])
    with pytest.raises(CliError):
        cli.resolve_options(args)


# the options when none is set, as `replicate` writes them to report.json
OPTION_DEFAULTS = {
    "prior": "lcm", "g": 1.0, "gct": 1.0, "gch": 1.0, "robust_g": False,
    "baseline": "normal", "iters": 20000, "burnin": 10000, "thin": 2,
    "chains": 1, "seed": 0, "level": 0.9, "no_standardize": False,
    "screening_init": False,
}
# a value other than the default for every common option, as a flag reads it
NON_DEFAULT = {
    "prior": ("product", "product"), "g": ("2.5", 2.5), "gct": ("3", 3.0),
    "gch": ("0.5", 0.5), "robust_g": ("true", True), "baseline": ("t2", "t2"),
    "iters": ("300", 300), "burnin": ("100", 100), "thin": ("3", 3),
    "chains": ("2", 2), "seed": ("7", 7), "level": ("0.5", 0.5),
    "no_standardize": ("yes", True), "screening_init": ("1", True),
}


def _typed(opts):
    return {key: (type(value), value) for key, value in opts.items()}


def test_one_table_drives_flags_and_config_file(tmp_path):
    """Every common option gives the same resolved options, with the same
    types, as a flag and as a config key spelled with '-' or '_'."""
    ap = cli.build_parser()
    assert _typed(cli.resolve_options(ap.parse_args(["select", "x"]))) == _typed(OPTION_DEFAULTS)
    assert set(NON_DEFAULT) == set(cli._OPTIONS) == set(OPTION_DEFAULTS)
    for key, (text, value) in NON_DEFAULT.items():
        flag = "--" + key.replace("_", "-")
        argv = [flag] if isinstance(value, bool) else [flag, text]
        resolved = [cli.resolve_options(ap.parse_args(["select", "x", *argv]))]
        for spelling in (key, key.replace("_", "-")):
            cfg = tmp_path / f"{spelling}.cfg"
            cfg.write_text(f"# one option\n{spelling} = {text}\n")
            resolved.append(cli.resolve_options(
                ap.parse_args(["select", "x", "--config", str(cfg)])))
        expected = _typed({**OPTION_DEFAULTS, key: value})
        assert all(_typed(opts) == expected for opts in resolved), key


@pytest.mark.parametrize("text, value", [("1", True), ("true", True), ("Yes", True),
                                         ("0", False), ("FALSE", False), ("no", False)])
def test_config_booleans(tmp_path, text, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"robust-g={text}\n")
    ap = cli.build_parser()
    assert cli.resolve_options(ap.parse_args(["select", "x", "--config", str(cfg)]))[
        "robust_g"] is value
    flagged = ap.parse_args(["select", "x", "--config", str(cfg), "--robust-g"])
    assert cli.resolve_options(flagged)["robust_g"] is True  # the flag wins


# Bad input: (command, option, value).  Common options are also given as a
# config-file line; a boolean flag carries no value, so robust_g is only
# given in the file.
COMMON_BAD = [("prior", "foo"), ("robust_g", "maybe"), ("baseline", "foo"),
              ("iters", "abc"), ("level", "1.5"), ("iters", "0"), ("burnin", "20000"),
              ("thin", "0"), ("chains", "0"), ("g", "-1"), ("seed", "-1"),
              *((g, bad) for g in ("g", "gct", "gch") for bad in ("nan", "inf"))]
# what an error line says of an option whose name it does not spell out; an
# output path is named by the path itself
MENTION = {"iters": "iter", "burnin": "burn", "g": "g hyperparameters",
           "gct": "g hyperparameters", "gch": "g hyperparameters", "p": "n and p"}
BAD_INPUT = (
    [("select", "config", key, value) for key, value in COMMON_BAD]
    + [("select", "flag", key, value) for key, value in COMMON_BAD if key != "robust_g"]
    + [(command, "flag", key, value) for command in ("simulate", "replicate")
       for key, value in (("p", "0"), ("censoring", "1.5"), ("rho", "1"), ("sigma", "nan"),
                          ("sigma", "inf"), ("mu", "nan"), ("mu", "inf"))]
    + [("replicate", "flag", "workers", "0"), ("replicate", "flag", "reps", "0")]
    # an existing file as select's output directory, and missing directories
    + [("select", "flag", "out", "{tmp}/data.csv"),
       ("enumerate", "flag", "out", "{tmp}/no-such-dir/x.csv"),
       ("replicate", "flag", "out", "{tmp}/no-such-dir/x.json")])


@pytest.mark.parametrize("command, form, key, value", BAD_INPUT,
                         ids=[f"{c}-{f}-{k}={v}" for c, f, k, v in BAD_INPUT])
def test_bad_input_stops_before_any_work(tmp_path, capsys, monkeypatch, command, form,
                                         key, value):
    """Exit code 2 with one error line that names the option, before a
    chain starts, a model is scored or a file is written."""
    started = []

    def no_work(*args, **kwargs):
        started.append(args)
        raise AssertionError("a chain started or a model was scored")

    monkeypatch.setattr(cli.sampler, "run_chain", no_work)
    monkeypatch.setattr(cli.ModelScorer, "score", no_work)
    data = tmp_path / "data.csv"
    write_csv(data, FIVE_ROWS, header=("time", "status", "a", "b", "c"))
    value = value.format(tmp=tmp_path)
    out = tmp_path / {"select": "out", "enumerate": "out.csv", "simulate": "out.csv",
                      "replicate": "out.json"}[command]
    argv = [command, *([data] if command in ("select", "enumerate") else []), "--out", out]
    if form == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", cfg]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects a bad flag itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and not started
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert (value if key == "out" else MENTION.get(key, key)) in line
    assert "Traceback" not in err and "FAILED" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["data.csv", *(["run.cfg"] if form == "config" else [])])


def test_prior_flag_combinations():
    ap = cli.build_parser()
    opts = cli.resolve_options(ap.parse_args(["select", "x", "--prior", "product",
                                              "--gct", "2", "--gch", "3"]))
    sc = cli.build_scorer_config(opts)
    assert sc.method.value == "LA"
    assert sc.coef_prior.g_ct == 2.0 and sc.coef_prior.g_ch == 3.0
    opts = cli.resolve_options(ap.parse_args(["select", "x", "--robust-g"]))
    assert cli.build_scorer_config(opts).method.value == "ILA_RobustG"
    opts = cli.resolve_options(ap.parse_args(
        ["select", "x", "--prior", "product", "--robust-g"]))
    with pytest.raises(CliError):
        cli.build_scorer_config(opts)


def test_replicate_smoke(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run(["replicate", "--reps", "3", "--n", 100, "--p", 4,
                "--truth", "ph", "--censoring", "0.2", "--iters", "800",
                "--burnin", "300", "--seed", 1, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["aggregate"]["reps_completed"] == 3
    reps = report["replicates"]
    assert len(reps) == 3
    agg = report["aggregate"]
    assert agg["mean_sensitivity"] == pytest.approx(
        np.mean([r["sensitivity"] for r in reps]))
    assert agg["mean_specificity"] == pytest.approx(
        np.mean([r["specificity"] for r in reps]))
    text = capsys.readouterr().out
    assert "replicates: 3 ok" in text


def test_replicate_whose_chain_cannot_start_is_reported(tmp_path, capsys, monkeypatch):
    """A replicate whose initial model has no score fails alone, and its
    FAILED line names its seed and the impossible start."""
    run_chain = cli.sampler.run_chain

    def failing(scorer, config):
        if config.seed == 1001:
            raise cli.sampler.ImpossibleStartError("initial model 0000 has an impossible score")
        return run_chain(scorer, config)

    monkeypatch.setattr(cli.sampler, "run_chain", failing)
    out = tmp_path / "rep.json"
    assert run(["replicate", "--reps", "3", "--workers", "1", "--n", 100, "--p", 2,
                "--truth", "ph", "--iters", "200", "--burnin", "50", "--seed", 1,
                "--out", out]) == 0
    report = json.loads(out.read_text())
    assert [r["seed"] for r in report["replicates"]] == [1, 2001]
    assert report["aggregate"]["reps_failed"] == 1
    (line,) = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("FAILED")]
    assert "seed 1001" in line and "impossible score" in line
    assert "is not defined" not in line


def _replicate_report(tmp_path, capsys, workers):
    out = tmp_path / f"rep-w{workers}.json"
    assert run(["replicate", "--reps", "3", "--workers", workers, "--n", 80, "--p", 2,
                "--truth", "ph", "--iters", "200", "--burnin", "50", "--seed", 1,
                "--out", out]) == 0
    failed = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("FAILED")]
    return out.read_bytes(), failed


def test_replicate_report_does_not_depend_on_workers(tmp_path, capsys, monkeypatch):
    """One loop collects the replicates, serially or in the pool: the same
    report.json either way, and the same FAILED line for a failing seed."""
    serial, pooled = (_replicate_report(tmp_path, capsys, w) for w in (1, 2))
    assert serial == pooled and serial[1] == []
    run_chain = cli.sampler.run_chain

    def failing(scorer, config):
        if config.seed == 1001:
            raise ValueError("no chain for seed 1001")
        return run_chain(scorer, config)

    monkeypatch.setattr(cli.sampler, "run_chain", failing)  # forked workers inherit it
    serial, pooled = (_replicate_report(tmp_path, capsys, w) for w in (1, 2))
    assert serial == pooled
    assert serial[1] == ["FAILED replicate 1: no chain for seed 1001"]
    assert json.loads(serial[0])["aggregate"]["reps_failed"] == 1


def _replicate_records(out, *flags):
    assert run(["replicate", "--reps", "1", "--n", 150, "--p", 4, "--truth", "ph",
                "--censoring", "0.2", "--iters", "600", "--burnin", "200",
                "--seed", 3, "--out", out, *flags]) == 0
    return json.loads(out.read_text())["replicates"]


def test_replicate_honours_no_standardize(tmp_path):
    default = _replicate_records(tmp_path / "std.json")
    raw = _replicate_records(tmp_path / "raw.json", "--no-standardize")
    assert raw != default
    assert raw[0]["pip"] != default[0]["pip"]


def test_replicate_default_record_unchanged(tmp_path):
    """The default (standardising) replicate gives the record it gave before
    the flag was honoured; the figures are from that version."""
    (rec,) = _replicate_records(tmp_path / "std.json")
    assert (rec["seed"], rec["top_model"], rec["modal_class"]) == (3, "2220", "PH")
    assert rec["modal_class_correct"] and rec["sensitivity"] == rec["specificity"] == 1.0
    assert rec["pip"] == pytest.approx(
        [0.9999998560996601, 0.9999960762683889, 0.5546641325836146,
         0.27425072660406097], abs=1e-6)
    assert rec["true_class_prob"] == pytest.approx(0.5928748107740648, abs=1e-6)


def test_replicate_scoring_matches_score_selection(tmp_path):
    """Each replicate's sensitivity and specificity are score_selection of its
    top model against the simulated truth."""
    from ghsel.summarize import score_selection
    assert score_selection(Gamma.from_key("2020"), Gamma.from_key("2200")) == (0.5, 0.5)
    out = tmp_path / "rep.json"
    assert run(["replicate", "--reps", "3", "--workers", "1", "--n", 60, "--p", 4,
                "--truth", "gh", "--censoring", "0.3", "--iters", "300",
                "--burnin", "100", "--seed", 5, "--out", out]) == 0
    report = json.loads(out.read_text())
    truth = Gamma.from_key(report["config"]["sim"]["truth"])
    for rec in report["replicates"]:
        assert (rec["sensitivity"], rec["specificity"]) == score_selection(
            Gamma.from_key(rec["top_model"]), truth)


@pytest.mark.parametrize("truth, chain_flags", [("ph", ()),
                                               ("gh", ("--chains", 2, "--screening-init"))],
                         ids=["ph", "gh-two-chains-screening"])
def test_replicate_record_matches_simulate_then_select(tmp_path, truth, chain_flags):
    """A one-replicate study finds what `simulate` and then `select` with the
    same seed and flags write: the same top model, the PIPs and the
    true-class posterior of summary.json, exactly."""
    sim = ("--n", 150, "--p", 4, "--truth", truth, "--censoring", "0.2")
    chain = ("--iters", 600, "--burnin", 200, "--seed", 3, *chain_flags)
    assert run(["replicate", "--reps", 1, *sim, *chain, "--out", tmp_path / "rep.json"]) == 0
    (rec,) = json.loads((tmp_path / "rep.json").read_text())["replicates"]
    assert run(["simulate", *sim, "--seed", 3, "--out", tmp_path / "sim.csv"]) == 0
    assert run(["select", tmp_path / "sim.csv", *chain, "--out", tmp_path / "run"]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    truth_gamma = json.loads((tmp_path / "sim.truth.json").read_text())["gamma"]
    assert rec["top_model"] == summary["top_model"]
    assert rec["pip"] == list(summary["pip_any"].values())
    assert rec["true_class_prob"] == summary["hazard_probs"][
        classify(Gamma.from_key(truth_gamma)).value]


# ---------------------------------------------------------------------------
# edge cases and a property test of `select`

def _edge_case_rows(case):
    rng = np.random.default_rng(11)
    if case == "n5-p3":
        return FIVE_ROWS
    n = 30
    t = rng.gamma(2.0, 1.0, n)
    x = rng.standard_normal((n, 3))
    if case == "duplicate-columns":
        x[:, 2] = x[:, 0]
    elif case == "times-1e-8-to-1e8":
        t = 10.0 ** rng.permutation(np.linspace(-8.0, 8.0, n))
    elif case == "constant-column":
        x[:, 1] = 3.0
    status = (rng.random(n) < 0.8).astype(int)
    status[:2] = 1
    return [[ti, si, *xi] for ti, si, xi in zip(t, status, x)]


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _floats(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _floats(value)


def _check_select_outputs(out):
    """summary.json holds no NaN and both probability tables sum to 1."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert not any(math.isnan(v) for v in _floats(summary))
    for table in ("model_probs_frequency", "model_probs_renormalized"):
        assert abs(math.fsum(summary[table].values()) - 1.0) <= 1e-9, table


@pytest.mark.parametrize("flags", [("--robust-g",), ("--baseline", "logistic"),
                                   ("--prior", "product", "--baseline", "t2"),
                                   ("--baseline", "sech")],
                         ids=["normal-robust-g", "logistic", "t2-product", "sech"])
@pytest.mark.parametrize("case", ["n5-p3", "duplicate-columns", "times-1e-8-to-1e8",
                                  "constant-column"])
def test_select_edge_cases(tmp_path, case, flags):
    """Awkward data runs to the end, free of RuntimeWarnings (which pytest
    turns into errors here), with well-formed outputs."""
    path = tmp_path / "data.csv"
    write_csv(path, _edge_case_rows(case), header=("time", "status", "a", "b", "c"))
    out = tmp_path / "run"
    assert run(["select", path, "--out", out, "--iters", 400, "--burnin", 100,
                *flags]) == 0
    _check_select_outputs(out)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_select_on_random_small_datasets(data):
    """On any small dataset `select` either succeeds with well-formed outputs
    or stops with a load error (exit code 2)."""
    n = data.draw(st.integers(2, 12), label="n")
    p = data.draw(st.integers(1, 3), label="p")
    log_t = data.draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n), label="log_t")
    status = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="status")
    x = data.draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p),
                           min_size=n, max_size=n), label="x")
    kernel = data.draw(st.sampled_from([k.value for k in Kernel]), label="kernel")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_csv(path, [[math.exp(lt), s, *xi] for lt, s, xi in zip(log_t, status, x)],
                  header=("time", "status", *(f"x{j}" for j in range(p))))
        out = Path(tmp) / "run"
        code = run(["select", path, "--out", out, "--baseline", kernel,
                    "--iters", 120, "--burnin", 40])
        assert code in (0, 2)
        if code == 0:
            _check_select_outputs(out)
