"""Command-line front end.

Subcommands:
  select     run the model-selection sampler on a dataset CSV
  enumerate  exact posterior over every model (small variable counts)
  simulate   generate a dataset CSV plus a truth sidecar JSON
  replicate  Monte-Carlo study: simulate -> select -> score, aggregated

Dataset CSV format: header `time,status,<name1>,...`; `time` positive,
`status` 0/1, remaining columns numeric covariates.  Covariates are centred
and scaled by default (disable with --no-standardize).  A key=value config
file may set any common option, read like its flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import json
import math
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import sampler, simulate, summarize
from .baseline import Kernel
from .ghlik import Dataset
from .marglik import MarglikMethod, ModelScorer, ScorerConfig
from .modelspace import (ENUMERATION_CAP, Gamma, HazardClass, classify,
                         enumerate_models, log_model_prior)
from .priors import CoefficientPrior
from .sampler import ChainConfig
from .simulate import (LogLocationScaleBaseline, SimConfig, protocol_truth,
                       simulate_dataset)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# dataset I/O

_STATUS = ("0", "1", "0.0", "1.0")


def read_dataset(path: str) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != "time" or header[1] != "status":
            raise CliError(f"{path}: header must start with 'time,status', got {header[:2]}")
        names = tuple(header[2:])
        if not names:
            raise CliError(f"{path}: no covariate columns")
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2) if row]
    if not rows:
        raise CliError(f"{path}: no data rows")
    try:
        t, delta, X = _parse_rows([row for _, row in rows], len(header))
    except ValueError:
        t, delta, X = _scan_rows(path, rows, len(header))
    n_events = int(delta.sum())
    if n_events == 0:
        # every fit would report converged and the posterior would be the
        # model prior reshaped by Occam factors
        raise CliError(f"{path}: no events (every status is 0)")
    if n_events == 1:
        # even the null model has two parameters, more than the events, so
        # no model could be fitted
        raise CliError(f"{path}: only one event; at least 2 are needed")
    try:
        return Dataset(t=t, delta=delta, X=X, names=names)
    except ValueError as exc:  # a covariate name given twice
        raise CliError(f"{path}: {exc}") from None


def _parse_rows(rows: list, width: int) -> tuple:
    """(t, delta, X) of the data rows, parsed and checked as arrays; a
    ValueError if any row is not a valid observation."""
    # each cell parsed as float() parses it; rows of unequal lengths raise
    values = np.array(rows, dtype=float)
    if values.shape[1] != width:
        raise ValueError("rows of the wrong length")
    t, X = values[:, 0], values[:, 2:]
    if not ({row[1] for row in rows} <= set(_STATUS)
            and ((t > 0) & np.isfinite(t)).all() and np.isfinite(X).all()):
        raise ValueError("invalid rows")
    return t, values[:, 1], X


def _scan_rows(path: str, rows: list, width: int) -> tuple:
    """`_parse_rows` one row at a time: the CliError names the first bad
    line and what is wrong with it."""
    t, delta, X = [], [], []
    for lineno, row in rows:
        if len(row) != width:
            raise CliError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            ti, *xs = map(float, (row[0], *row[2:]))
        except ValueError:
            raise CliError(f"{path}:{lineno}: non-numeric value") from None
        if not (ti > 0 and math.isfinite(ti)):
            raise CliError(f"{path}:{lineno}: time must be positive and finite, got {row[0]}")
        if row[1] not in _STATUS:
            raise CliError(f"{path}:{lineno}: status must be 0 or 1, got {row[1]!r}")
        if not all(map(math.isfinite, xs)):
            raise CliError(f"{path}:{lineno}: covariates must be finite")
        t.append(ti)
        delta.append(float(row[1]))
        X.append(xs)
    return np.array(t), np.array(delta), np.array(X)


def write_dataset(path: str, data: Dataset):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "status", *data.names])
        for i in range(data.n):
            writer.writerow([repr(float(data.t[i])), int(data.delta[i]),
                             *[repr(float(v)) for v in data.X[i]]])


# ---------------------------------------------------------------------------
# configuration assembly

# Each common option once: name -> (type or tuple of choices, default, help).
# The table builds the flags and reads the config file with the same types
# and choices.
_OPTIONS = {
    "prior": (("lcm", "product"), "lcm", "marginal-likelihood route"),
    "g": (float, 1.0, "curvature-matching prior scale g_E"),
    "gct": (float, 1.0, "product prior time-level scale"),
    "gch": (float, 1.0, "product prior hazard-level scale"),
    "robust_g": (bool, False, "integrate g_E under the robust hyper-g prior"),
    "baseline": (tuple(k.value for k in Kernel), "normal", "baseline kernel"),
    "iters": (int, 20000, "chain iterations"),
    "burnin": (int, 10000, "iterations discarded before sampling"),
    "thin": (int, 2, "keep every thin-th iteration after the burn-in"),
    "chains": (int, 1, "independent chains"),
    "seed": (int, 0, "random seed"),
    "level": (float, 0.9, "credible-set level"),
    "no_standardize": (bool, False, "keep the covariates as they are"),
    "screening_init": (bool, False, "start the chain from a screening model"),
}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _add_common_flags(ap: argparse.ArgumentParser):
    ap.add_argument("--config", default=None, help="flat key=value config file")
    for name, (kind, default, help_) in _OPTIONS.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            ap.add_argument(flag, action="store_true", default=None, help=help_)
        else:
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            ap.add_argument(flag, default=None, help=f"{help_} (default {default})", **typed)


def _parse(kind, text: str):
    """A config-file value read as the option's flag reads it; a ValueError
    says what the value must be."""
    if kind is bool:
        if text.lower() in _BOOLS:
            return _BOOLS[text.lower()]
        raise ValueError("1/0, true/false or yes/no")
    if isinstance(kind, tuple):
        if text in kind:
            return text
        raise ValueError("one of " + ", ".join(kind))
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"of type {kind.__name__}") from None


def _read_config_file(path: str) -> dict:
    """The options a key=value file sets, each read with its flag's type or
    choices; a boolean is 1/0, true/false or yes/no."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in _OPTIONS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _parse(_OPTIONS[key][0], value)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {key} must be {exc}, got {value!r}") from None
    return out


def resolve_options(args: argparse.Namespace) -> dict:
    """Every common option: its flag if given, else its config-file value,
    else its default."""
    opts = {name: default for name, (_, default, _) in _OPTIONS.items()}
    if getattr(args, "config", None):
        opts.update(_read_config_file(args.config))
    for key in opts:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def build_scorer_config(opts: dict) -> ScorerConfig:
    """The scorer's configuration; every g option is checked, whichever
    prior reads it."""
    coef = CoefficientPrior(g_e=opts["g"], g_ct=opts["gct"], g_ch=opts["gch"])
    if opts["prior"] == "lcm":
        method = (MarglikMethod.ILA_ROBUST_G if opts["robust_g"]
                  else MarglikMethod.ILA)
    else:
        if opts["robust_g"]:
            raise CliError("--robust-g applies to the lcm prior only")
        method = MarglikMethod.LA
    return ScorerConfig(method=method, coef_prior=coef)


def build_chain_config(opts: dict) -> ChainConfig:
    return ChainConfig(iterations=opts["iters"], burn_in=opts["burnin"],
                       thin=opts["thin"], n_chains=opts["chains"],
                       seed=opts["seed"], screening_init=opts["screening_init"])


def _options(args) -> dict:
    """The common options, once every configuration they describe has been
    built: a bad value is a CliError before any data is read or written."""
    opts = resolve_options(args)
    if min(getattr(args, "reps", 1), getattr(args, "workers", 1)) < 1:
        raise CliError("--reps and --workers must be >= 1")
    if opts["seed"] < 0:
        raise CliError("--seed must be >= 0")
    try:
        summarize.hpm_credible_set({}, opts["level"])  # checks the level
        build_scorer_config(opts)
        build_chain_config(opts)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return opts


# ---------------------------------------------------------------------------
# reporting helpers

@contextlib.contextmanager
def _output_file(out):
    """The open file a command writes its output `out` through, or None
    without an output path.  The path is checked before any work, by opening
    it to append, which leaves an existing file as it is; the command writes
    a temporary file beside it, which replaces it once the command has
    succeeded.  So a failed command leaves an existing file unchanged."""
    if not out:
        yield None
        return
    open(out, "a").close()
    tmp = Path(out).with_name(f".{Path(out).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(fh, payload):
    json.dump(payload, fh, sort_keys=True, indent=2)
    fh.write("\n")


def _write_probs_csv(path: str, freq: dict, renorm: dict):
    keys = sorted(set(freq) | set(renorm), key=lambda k: (-renorm.get(k, 0.0), k))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "class", "prob_frequency", "prob_renormalized"])
        for k in keys:
            writer.writerow([k, classify(Gamma.from_key(k)).value,
                             repr(float(freq.get(k, 0.0))), repr(float(renorm.get(k, 0.0)))])


def _write_pip_csv(path: str, pip_any: dict, pip_by_role: dict):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "pip", "pip_time", "pip_hazard",
                         "pip_both", "pip_tied"])
        for name, prob in pip_any.items():
            writer.writerow([name, repr(prob), *map(repr, pip_by_role[name])])


def _write_trace_jsonl(path: str, trace):
    """One JSON object per retained sample, keys sorted.  What a line says
    about its model (class, gamma, log_ml, log_prior) is serialised once per
    model; each line puts its chain and iteration around those fragments."""
    fragments = {}
    with open(path, "w", encoding="utf-8") as fh:
        for chain, it, key in trace.samples:
            frag = fragments.get(key)
            if frag is None:
                log_ml, log_prior = trace.visited[key]
                frag = fragments[key] = (
                    json.dumps({"class": classify(Gamma.from_key(key)).value,
                                "gamma": key}, sort_keys=True)[1:-1],
                    json.dumps({"log_ml": log_ml, "log_prior": log_prior},
                               sort_keys=True)[1:])
            fh.write(f'{{"chain": {chain}, {frag[0]}, "iter": {it}, {frag[1]}\n')


# ---------------------------------------------------------------------------
# subcommands

def _scorer(data: Dataset, opts: dict) -> ModelScorer:
    """The scorer of the dataset as the options analyse it: covariates
    centred and scaled to unit standard deviation unless --no-standardize
    (constant columns are only centred)."""
    if not opts["no_standardize"]:
        mean, sd = data.X.mean(axis=0), data.X.std(axis=0)
        sd[sd == 0.0] = 1.0
        data = Dataset(t=data.t, delta=data.delta, X=(data.X - mean) / sd, names=data.names)
    return ModelScorer(data, Kernel(opts["baseline"]), build_scorer_config(opts))


def _select(data: Dataset, opts: dict, seed: int, label: str):
    """Run the chain with `seed` under a scorer of its own; returns (scorer,
    trace).  A chain that cannot start is a CliError that begins with
    `label`."""
    scorer = _scorer(data, opts)
    try:
        trace = sampler.run_chain(scorer, build_chain_config({**opts, "seed": seed}))
    except sampler.ImpossibleStartError as exc:
        raise CliError(f"{label}: {exc}: its fit failed, so the chain cannot start") from None
    return scorer, trace


def cmd_select(args, opts) -> int:
    data = read_dataset(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad output path stops before the chain
    scorer, trace = _select(data, opts, opts["seed"], args.data)
    _write_trace_jsonl(str(out / "trace.jsonl"), trace)
    payload = summarize.summary(trace, scorer, opts["level"])
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        _write_json(fh, payload)
    _write_probs_csv(str(out / "model_probs.csv"), payload["model_probs_frequency"],
                     payload["model_probs_renormalized"])
    _write_pip_csv(str(out / "pip.csv"), payload["pip_any"], payload["pip_by_role"])
    print(f"top model {payload['top_model']} ({payload['top_model_class']}); "
          f"{payload['n_retained']} retained samples, "
          f"{payload['n_visited']} models visited")
    return 0


def cmd_enumerate(args, opts) -> int:
    data = read_dataset(args.data)
    if data.p > ENUMERATION_CAP and not args.force:
        raise CliError(f"enumeration over p={data.p} exceeds cap {ENUMERATION_CAP}; "
                       f"pass --force to override")
    scorer = _scorer(data, opts)
    with _output_file(args.out) as fh:
        rows = []
        for gamma in enumerate_models(data.p, cap=max(data.p, ENUMERATION_CAP)):
            rec = scorer.score(gamma)
            rows.append((gamma.key, classify(gamma).value, rec.log_ml,
                         log_model_prior(gamma)))
        try:
            w = summarize.normalized([lm + lp for _, _, lm, lp in rows])
        except ValueError:
            raise CliError(f"{args.data}: no model could be fitted") from None
        order = np.argsort(-w, kind="stable")
        lines = [["gamma", "class", "log_ml", "log_prior", "posterior"]]
        for i in order:
            key, cls, lm, lp = rows[i]
            lines.append([key, cls, repr(float(lm)), repr(float(lp)), repr(float(w[i]))])
        if fh is None:
            for line in lines:
                print(",".join(line))
        else:
            csv.writer(fh).writerows(lines)
    return 0


def _sim_config(args, opts) -> SimConfig:
    """The simulation settings, checked before the protocol's truth is drawn
    up (which needs p >= 1); a bad value is a CliError."""
    try:
        if args.pgw:
            baseline = simulate.PGWBaseline()
        else:
            baseline = LogLocationScaleBaseline(mu=args.mu, sigma=args.sigma,
                                                kernel=Kernel(opts["baseline"]))
        cfg = SimConfig(n=args.n, p=args.p, truth=None, alpha=[0.0] * args.p,
                        beta=[0.0] * args.p, baseline=baseline, rho=args.rho,
                        target_censoring=args.censoring, seed=opts["seed"])
    except ValueError as exc:
        raise CliError(str(exc)) from None
    truth, alpha, beta = protocol_truth(args.p, HazardClass[args.truth.upper()], strict=False)
    return replace(cfg, truth=truth, alpha=alpha, beta=beta)


def cmd_simulate(args, opts) -> int:
    data, truth = simulate_dataset(_sim_config(args, opts))
    write_dataset(args.out, data)
    sidecar = Path(args.out).with_suffix(".truth.json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        _write_json(fh, truth)
    print(f"wrote {args.out} (n={data.n}, p={data.p}, "
          f"censoring={1 - data.n_events / data.n:.3f}) and {sidecar}")
    return 0


def _run_replicate(rep_args):
    """One replicate: simulate, select, score.  Module-level for pickling."""
    (opts, sim_cfg, rep_seed) = rep_args
    data, truth = simulate_dataset(replace(sim_cfg, seed=rep_seed))
    scorer, trace = _select(data, opts, rep_seed, f"seed {rep_seed}")
    summary = summarize.summary(trace, scorer, opts["level"])
    truth_gamma = Gamma.from_key(truth["gamma"])
    sens, spec = summarize.score_selection(Gamma.from_key(summary["top_model"]), truth_gamma)
    hz = summary["hazard_probs"]
    truth_cls = classify(truth_gamma).value
    modal_cls = max(hz.items(), key=lambda kv: kv[1])[0]
    return {"seed": rep_seed, "top_model": summary["top_model"], "sensitivity": sens,
            "specificity": spec, "modal_class": modal_cls, "true_class_prob": hz[truth_cls],
            "modal_class_correct": modal_cls == truth_cls, "pip": list(summary["pip_any"].values())}


def cmd_replicate(args, opts) -> int:
    sim_cfg = _sim_config(args, opts)
    sim_dict = {"n": sim_cfg.n, "p": sim_cfg.p, "truth": sim_cfg.truth.key,
                "alpha": sim_cfg.alpha.tolist(), "beta": sim_cfg.beta.tolist(),
                "baseline": simulate._baseline_dict(sim_cfg.baseline),
                "rho": sim_cfg.rho, "censoring": sim_cfg.target_censoring}
    jobs = [(opts, sim_cfg, opts["seed"] + 1000 * r) for r in range(args.reps)]
    results, failures = [], []
    with _output_file(args.out) as fh:
        with contextlib.ExitStack() as stack:
            if args.workers > 1:
                import concurrent.futures as cf
                pool = stack.enter_context(cf.ProcessPoolExecutor(max_workers=args.workers))
                outcomes = [pool.submit(_run_replicate, job).result for job in jobs]
            else:
                outcomes = [functools.partial(_run_replicate, job) for job in jobs]
            for i, outcome in enumerate(outcomes):  # in seed order, however they run
                try:
                    results.append(outcome())
                except Exception as exc:  # a failed replicate is reported, the study goes on
                    failures.append(f"replicate {i}: {exc}")
        for msg in failures:
            print(f"FAILED {msg}", file=sys.stderr)
        if not results:
            raise CliError("all replicates failed")
        agg = {
            "reps_completed": len(results),
            "reps_failed": len(failures),
            "mean_sensitivity": float(np.mean([r["sensitivity"] for r in results])),
            "mean_specificity": float(np.mean([r["specificity"] for r in results])),
            "modal_class_correct": int(sum(r["modal_class_correct"] for r in results)),
            "mean_true_class_prob": float(np.mean([r["true_class_prob"] for r in results])),
            "mean_pip": [float(v) for v in np.mean([r["pip"] for r in results], axis=0)],
        }
        if fh is not None:
            _write_json(fh, {"config": {"sim": sim_dict, "options": opts, "reps": args.reps},
                             "replicates": results, "aggregate": agg})
    print(f"replicates: {agg['reps_completed']} ok, {agg['reps_failed']} failed")
    print(f"modal hazard structure correct: {agg['modal_class_correct']}"
          f"/{agg['reps_completed']}")
    print(f"mean sensitivity {agg['mean_sensitivity']:.3f}, "
          f"mean specificity {agg['mean_specificity']:.3f}, "
          f"mean true-class posterior {agg['mean_true_class_prob']:.3f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ghsel",
        description="Bayesian variable and hazard-structure selection for "
                    "right-censored time-to-event data")
    sub = ap.add_subparsers(dest="command", required=True)
    p_sel = sub.add_parser("select", help="run the selection sampler on a CSV")
    p_sel.add_argument("data")
    p_sel.add_argument("--out", default="ghsel_out")
    p_enum = sub.add_parser("enumerate", help="exact posterior over all models")
    p_enum.add_argument("data")
    p_enum.add_argument("--out", default=None)
    p_enum.add_argument("--force", action="store_true")
    p_sim = sub.add_parser("simulate", help="generate a dataset CSV + truth JSON")
    p_sim.add_argument("--out", required=True)
    p_rep = sub.add_parser("replicate", help="Monte-Carlo study")
    p_rep.add_argument("--reps", type=int, default=20)
    p_rep.add_argument("--workers", type=int, default=1)
    p_rep.add_argument("--out", default=None)
    for sim in (p_sim, p_rep):
        sim.add_argument("--n", type=int, default=1000)
        sim.add_argument("--p", type=int, default=10)
        sim.add_argument("--truth", choices=("aft", "ah", "gh", "ph"), default="ph")
        sim.add_argument("--censoring", type=float, default=0.25)
        sim.add_argument("--rho", type=float, default=0.7)
        sim.add_argument("--mu", type=float, default=1.55)
        sim.add_argument("--sigma", type=float, default=0.7)
        sim.add_argument("--pgw", action="store_true",
                         help="generate from the power generalized Weibull baseline")
    for command, func in ((p_sel, cmd_select), (p_enum, cmd_enumerate),
                          (p_sim, cmd_simulate), (p_rep, cmd_replicate)):
        _add_common_flags(command)
        command.set_defaults(func=func)
    return ap


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _keep_freed_heap():
    """Have glibc's malloc keep freed memory for reuse (elsewhere: nothing).

    Every likelihood evaluation allocates and frees dozens of n-length
    temporaries.  By default glibc returns the freed top of the heap to the
    system once it exceeds 128 kB, so the next evaluation faults the same
    pages in again: about 42k minor page faults for one n = 5000 `select`,
    against 6k with these thresholds."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # blocks below 32 MB come from the heap
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)  # which keeps up to 64 MB free for reuse


@contextlib.contextmanager
def _removed_on_failure(out):
    """If the block raises, remove what it created of the output path `out`:
    the file, or the highest directory on the path that did not exist."""
    created = [q for q in (Path(out), *Path(out).parents) if not q.exists()] if out else []
    try:
        yield
    except BaseException:
        for q in created[-1:]:
            shutil.rmtree(q, ignore_errors=True) if q.is_dir() else q.unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        with _removed_on_failure(args.out):  # a failed command leaves no output behind
            return args.func(args, _options(args))
    except (CliError, OSError) as exc:  # OSError: an input or output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
