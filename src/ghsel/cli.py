"""Command-line front end.

Subcommands:
  select     run the model-selection sampler on a dataset CSV
  enumerate  exact posterior over every model (small variable counts)
  simulate   generate a dataset CSV plus a truth sidecar JSON
  replicate  Monte-Carlo study: simulate -> select -> score, aggregated

Dataset CSV format: header `time,status,<name1>,...`; `time` positive,
`status` 0/1, remaining columns numeric covariates.  Covariates are centred
and scaled by default (disable with --no-standardize).  A flat key=value
config file may supply any long-flag value; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import sampler, simulate, summarize
from .baseline import Kernel
from .ghlik import Dataset, time_level_columns, hazard_level_columns
from .marglik import MarglikMethod, ModelScorer, ScorerConfig
from .modelspace import (ENUMERATION_CAP, Gamma, HazardClass, ModelPriorConfig,
                         classify, enumerate_models, log_model_prior)
from .priors import CoefficientPrior, CommonPrior, GMode, PriorKind
from .sampler import ChainConfig
from .simulate import (LogLocationScaleBaseline, SimConfig, protocol_truth,
                       simulate_dataset)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# dataset I/O

def read_dataset(path: str, standardize: bool = True) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != "time" or header[1] != "status":
            raise CliError(f"{path}: header must start with 'time,status', got {header[:2]}")
        names = tuple(header[2:])
        t, delta, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CliError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                ti = float(row[0])
            except ValueError:
                raise CliError(f"{path}:{lineno}: non-numeric time {row[0]!r}") from None
            if not (ti > 0 and math.isfinite(ti)):
                raise CliError(f"{path}:{lineno}: time must be positive and finite, got {row[0]}")
            if row[1] not in ("0", "1", "0.0", "1.0"):
                raise CliError(f"{path}:{lineno}: status must be 0 or 1, got {row[1]!r}")
            try:
                xs = [float(v) for v in row[2:]]
            except ValueError:
                raise CliError(f"{path}:{lineno}: non-numeric covariate value") from None
            t.append(ti)
            delta.append(float(row[1]))
            rows.append(xs)
    X = np.asarray(rows, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(names):
        raise CliError(f"{path}: no covariate columns found")
    if standardize:
        X = _standardized(X)
    return Dataset(t=np.asarray(t), delta=np.asarray(delta), X=X, names=names)


def _standardized(X: np.ndarray) -> np.ndarray:
    """Columns centred and scaled to unit standard deviation (constant
    columns are only centred)."""
    mean, sd = X.mean(axis=0), X.std(axis=0)
    sd[sd == 0.0] = 1.0
    return (X - mean) / sd


def write_dataset(path: str, data: Dataset):
    names = data.names or tuple(f"x{j + 1}" for j in range(data.p))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "status", *names])
        for i in range(data.n):
            writer.writerow([repr(float(data.t[i])), int(data.delta[i]),
                             *[repr(float(v)) for v in data.X[i]]])


# ---------------------------------------------------------------------------
# configuration assembly

def _read_config_file(path: str) -> dict:
    out = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def add_common_flags(ap: argparse.ArgumentParser):
    ap.add_argument("--config", default=None, help="flat key=value config file")
    ap.add_argument("--prior", choices=["lcm", "product"], default=None)
    ap.add_argument("--g", type=float, default=None, help="curvature-matching prior scale g_E")
    ap.add_argument("--gct", type=float, default=None, help="product prior time-level scale")
    ap.add_argument("--gch", type=float, default=None, help="product prior hazard-level scale")
    ap.add_argument("--robust-g", action="store_true", default=None,
                    help="integrate g_E under the robust hyper-g prior")
    ap.add_argument("--baseline", choices=[k.value for k in Kernel], default=None)
    ap.add_argument("--iters", type=int, default=None)
    ap.add_argument("--burnin", type=int, default=None)
    ap.add_argument("--thin", type=int, default=None)
    ap.add_argument("--chains", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--level", type=float, default=None, help="credible-set level")
    ap.add_argument("--no-standardize", action="store_true", default=None)
    ap.add_argument("--screening-init", action="store_true", default=None)


_DEFAULTS = {
    "prior": "lcm", "g": 1.0, "gct": 1.0, "gch": 1.0, "robust_g": False,
    "baseline": "normal", "iters": 20000, "burnin": 10000, "thin": 2,
    "chains": 1, "seed": 0, "level": 0.9, "no_standardize": False,
    "screening_init": False,
}


def _to_bool(s) -> bool:
    return s if isinstance(s, bool) else s.lower() in ("1", "true", "yes")


_CASTS = {"g": float, "gct": float, "gch": float, "level": float,
          "iters": int, "burnin": int, "thin": int, "chains": int, "seed": int,
          "robust_g": _to_bool, "no_standardize": _to_bool, "screening_init": _to_bool}


def resolve_options(args: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, val in _read_config_file(args.config).items():
            if key not in opts:
                raise CliError(f"unknown config key {key!r}")
            opts[key] = _CASTS.get(key, str)(val)
    for key in opts:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = _CASTS.get(key, lambda v: v)(val)
    return opts


def build_scorer_config(opts: dict) -> ScorerConfig:
    if opts["prior"] == "lcm":
        method = (MarglikMethod.ILA_ROBUST_G if opts["robust_g"]
                  else MarglikMethod.ILA)
        coef = CoefficientPrior(kind=PriorKind.LCM, g_e=opts["g"],
                                g_mode=GMode.ROBUST_HYPER if opts["robust_g"] else GMode.FIXED)
    else:
        if opts["robust_g"]:
            raise CliError("--robust-g applies to the lcm prior only")
        method = MarglikMethod.LA
        coef = CoefficientPrior(kind=PriorKind.PRODUCT, g_ct=opts["gct"],
                                g_ch=opts["gch"])
    return ScorerConfig(method=method, coef_prior=coef, common=CommonPrior())


def build_chain_config(opts: dict) -> ChainConfig:
    return ChainConfig(iterations=opts["iters"], burn_in=opts["burnin"],
                       thin=opts["thin"], n_chains=opts["chains"],
                       seed=opts["seed"], screening_init=opts["screening_init"])


# ---------------------------------------------------------------------------
# reporting helpers

def map_coefficients(gamma: Gamma, fit, names) -> dict:
    """Fitted coefficients of one model in both parametrisations."""
    psi = fit.psi_opt
    nu, theta0 = float(psi[0]), float(psi[1])
    sigma = math.exp(-nu)
    mu = theta0 * sigma
    tc = time_level_columns(gamma)
    hc = hazard_level_columns(gamma)
    theta = psi[2:2 + len(tc)]
    eta = psi[2 + len(tc):]
    alpha = {names[j]: -sigma * float(th) for j, th in zip(tc, theta)}
    if classify(gamma) is HazardClass.AFT:
        beta = dict(alpha)
    else:
        beta = {names[j]: -float(e) for j, e in zip(hc, eta)}
    return {
        "psi": {"nu": nu, "theta0": theta0,
                "theta": {names[j]: float(v) for j, v in zip(tc, theta)},
                "eta": {names[j]: float(v) for j, v in zip(hc, eta)}},
        "natural": {"mu": mu, "sigma": sigma, "alpha": alpha, "beta": beta},
    }


def _summary_payload(model_probs_freq, model_probs_renorm, level, scorer, data,
                     trace=None):
    hz = summarize.hazard_posterior(model_probs_renorm)
    pip_any, pip_role = summarize.pip(model_probs_renorm)
    hpm = summarize.hpm_credible_set(model_probs_renorm, level)
    top_key = summarize.top_model(model_probs_renorm)
    top_gamma = Gamma.from_key(top_key)
    payload = {
        "model_probs_frequency": model_probs_freq,
        "model_probs_renormalized": model_probs_renorm,
        "hazard_probs": {cls.value: prob for cls, prob in hz.items()},
        "pip_any": {data.names[j]: float(v) for j, v in enumerate(pip_any)},
        "pip_by_role": {data.names[j]: [float(v) for v in row]
                        for j, row in enumerate(pip_role)},
        "hpm_set": [{"gamma": k, "prob": float(v)} for k, v in hpm],
        "hpm_level": level,
        "top_model": top_key,
        "top_model_class": classify(top_gamma).value,
    }
    if scorer is not None:
        rec = scorer.score(top_gamma)
        if rec.fit is not None and rec.fit.ok:
            payload["top_model_coefficients"] = map_coefficients(
                top_gamma, rec.fit, data.names)
    if trace is not None:
        payload["acceptance_rate"] = trace.acceptance_rate()
        payload["acceptance_by_move"] = {
            mk.value: trace.acceptance_rate(mk) for mk in sampler.MoveKind
            if trace.propose_count.get(mk)}
        payload["n_retained"] = len(trace.samples)
        payload["n_visited"] = len(trace.visited)
    return payload


def _write_json(path: str, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_probs_csv(path: str, freq: dict, renorm: dict):
    keys = sorted(set(freq) | set(renorm),
                  key=lambda k: -renorm.get(k, 0.0))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "class", "prob_frequency", "prob_renormalized"])
        for k in keys:
            writer.writerow([k, classify(Gamma.from_key(k)).value,
                             repr(float(freq.get(k, 0.0))), repr(float(renorm.get(k, 0.0)))])


def _write_pip_csv(path: str, names, pip_any, pip_role):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "pip", "pip_time", "pip_hazard",
                         "pip_both", "pip_tied"])
        for j, name in enumerate(names):
            writer.writerow([name, repr(float(pip_any[j])),
                             *[repr(float(v)) for v in pip_role[j]]])


def _write_trace_jsonl(path: str, trace):
    with open(path, "w", encoding="utf-8") as fh:
        for chain, it, key in trace.samples:
            log_ml, log_prior = trace.visited[key]
            fh.write(json.dumps({
                "iter": it, "gamma": key,
                "class": classify(Gamma.from_key(key)).value,
                "log_ml": log_ml, "log_prior": log_prior,
                "chain": chain}, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_select(args) -> int:
    opts = resolve_options(args)
    data = read_dataset(args.data, standardize=not opts["no_standardize"])
    kernel = Kernel(opts["baseline"])
    scorer_cfg = build_scorer_config(opts)
    chain_cfg = build_chain_config(opts)
    scorer = ModelScorer(data, kernel, scorer_cfg)
    trace = sampler.run_chain(data, kernel, chain_cfg, scorer_cfg,
                              ModelPriorConfig(), scorer=scorer)
    freq = summarize.probs_frequency(trace)
    renorm = summarize.probs_renormalized(trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_trace_jsonl(str(out / "trace.jsonl"), trace)
    payload = _summary_payload(freq, renorm, opts["level"], scorer, data, trace)
    _write_json(str(out / "summary.json"), payload)
    _write_probs_csv(str(out / "model_probs.csv"), freq, renorm)
    pip_any, pip_role = summarize.pip(renorm)
    _write_pip_csv(str(out / "pip.csv"), data.names, pip_any, pip_role)
    print(f"top model {payload['top_model']} ({payload['top_model_class']}); "
          f"{payload['n_retained']} retained samples, "
          f"{payload['n_visited']} models visited")
    return 0


def cmd_enumerate(args) -> int:
    opts = resolve_options(args)
    data = read_dataset(args.data, standardize=not opts["no_standardize"])
    if data.p > ENUMERATION_CAP and not args.force:
        raise CliError(f"enumeration over p={data.p} exceeds cap {ENUMERATION_CAP}; "
                       f"pass --force to override")
    kernel = Kernel(opts["baseline"])
    scorer = ModelScorer(data, kernel, build_scorer_config(opts))
    prior_cfg = ModelPriorConfig()
    rows = []
    for gamma in enumerate_models(data.p, cap=max(data.p, ENUMERATION_CAP)):
        rec = scorer.score(gamma)
        rows.append((gamma.key, classify(gamma).value, rec.log_ml,
                     log_model_prior(gamma, prior_cfg)))
    scores = np.array([lm + lp for _, _, lm, lp in rows])
    finite = np.isfinite(scores)
    m = scores[finite].max()
    w = np.where(finite, np.exp(scores - m), 0.0)
    w /= w.sum()
    order = np.argsort(-w, kind="stable")
    out_path = args.out or "-"
    lines = [["gamma", "class", "log_ml", "log_prior", "posterior"]]
    for i in order:
        key, cls, lm, lp = rows[i]
        lines.append([key, cls, repr(float(lm)), repr(float(lp)), repr(float(w[i]))])
    if out_path == "-":
        for line in lines:
            print(",".join(str(v) for v in line))
    else:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(lines)
    return 0


_TRUTH_CLASSES = {"ph": HazardClass.PH, "ah": HazardClass.AH,
                  "aft": HazardClass.AFT, "gh": HazardClass.GH}


def _sim_config(args, opts, seed) -> SimConfig:
    cls = _TRUTH_CLASSES[args.truth]
    truth, alpha, beta = protocol_truth(args.p, cls, strict=False)
    if args.pgw:
        baseline = simulate.PGWBaseline()
    else:
        baseline = LogLocationScaleBaseline(mu=args.mu, sigma=args.sigma,
                                            kernel=Kernel(opts["baseline"]))
    return SimConfig(n=args.n, p=args.p, truth=truth, alpha=alpha, beta=beta,
                     baseline=baseline, rho=args.rho,
                     target_censoring=args.censoring, seed=seed)


def add_sim_flags(ap):
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--p", type=int, default=10)
    ap.add_argument("--truth", choices=sorted(_TRUTH_CLASSES), default="ph")
    ap.add_argument("--censoring", type=float, default=0.25)
    ap.add_argument("--rho", type=float, default=0.7)
    ap.add_argument("--mu", type=float, default=1.55)
    ap.add_argument("--sigma", type=float, default=0.7)
    ap.add_argument("--pgw", action="store_true",
                    help="generate from the power generalized Weibull baseline")


def cmd_simulate(args) -> int:
    opts = resolve_options(args)
    cfg = _sim_config(args, opts, opts["seed"])
    data, truth = simulate_dataset(cfg)
    write_dataset(args.out, data)
    sidecar = Path(args.out).with_suffix(".truth.json")
    _write_json(str(sidecar), truth)
    print(f"wrote {args.out} (n={data.n}, p={data.p}, "
          f"censoring={1 - data.n_events / data.n:.3f}) and {sidecar}")
    return 0


def _run_replicate(rep_args):
    """One replicate: simulate, select, score.  Module-level for pickling."""
    (opts, sim_cfg, rep_seed) = rep_args
    data, truth = simulate_dataset(replace(sim_cfg, seed=rep_seed))
    if not opts["no_standardize"]:
        data = Dataset(t=data.t, delta=data.delta, X=_standardized(data.X),
                       names=data.names)
    kernel = Kernel(opts["baseline"])
    scorer_cfg = build_scorer_config(opts)
    chain_cfg = build_chain_config({**opts, "seed": rep_seed})
    scorer = ModelScorer(data, kernel, scorer_cfg)
    trace = sampler.run_chain(data, kernel, chain_cfg, scorer_cfg,
                              ModelPriorConfig(), scorer=scorer)
    renorm = summarize.probs_renormalized(trace)
    hz = summarize.hazard_posterior(renorm)
    pip_any, _ = summarize.pip(renorm)
    top = Gamma.from_key(summarize.top_model(renorm))
    truth_gamma = Gamma.from_key(truth["gamma"])
    sens, spec = summarize.score_selection(top, truth_gamma)
    truth_cls = classify(truth_gamma)
    modal_cls = max(hz.items(), key=lambda kv: kv[1])[0]
    return {
        "seed": rep_seed,
        "top_model": top.key,
        "sensitivity": sens,
        "specificity": spec,
        "modal_class": modal_cls.value,
        "true_class_prob": hz[truth_cls],
        "modal_class_correct": modal_cls is truth_cls,
        "pip": [float(v) for v in pip_any],
    }


def cmd_replicate(args) -> int:
    opts = resolve_options(args)
    sim_cfg = _sim_config(args, opts, opts["seed"])
    sim_dict = {"n": sim_cfg.n, "p": sim_cfg.p, "truth": sim_cfg.truth.key,
                "alpha": sim_cfg.alpha.tolist(), "beta": sim_cfg.beta.tolist(),
                "baseline": simulate._baseline_dict(sim_cfg.baseline),
                "rho": sim_cfg.rho, "censoring": sim_cfg.target_censoring}
    jobs = [(opts, sim_cfg, opts["seed"] + 1000 * r) for r in range(args.reps)]
    results, failures = [], []
    if args.workers > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=args.workers) as pool:
            futs = {pool.submit(_run_replicate, job): i for i, job in enumerate(jobs)}
            for fut in cf.as_completed(futs):
                try:
                    results.append(fut.result())
                except Exception as exc:  # individual failures logged, run continues
                    failures.append(f"replicate {futs[fut]}: {exc}")
    else:
        for i, job in enumerate(jobs):
            try:
                results.append(_run_replicate(job))
            except Exception as exc:
                failures.append(f"replicate {i}: {exc}")
    results.sort(key=lambda r: r["seed"])
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
        "mean_pip": [float(v) for v in
                     np.mean([r["pip"] for r in results], axis=0)],
    }
    payload = {"config": {"sim": sim_dict, "options": opts, "reps": args.reps},
               "replicates": results, "aggregate": agg}
    if args.out:
        _write_json(args.out, payload)
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
    add_common_flags(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_enum = sub.add_parser("enumerate", help="exact posterior over all models")
    p_enum.add_argument("data")
    p_enum.add_argument("--out", default=None)
    p_enum.add_argument("--force", action="store_true")
    add_common_flags(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_sim = sub.add_parser("simulate", help="generate a dataset CSV + truth JSON")
    p_sim.add_argument("--out", required=True)
    add_sim_flags(p_sim)
    add_common_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("replicate", help="Monte-Carlo study")
    p_rep.add_argument("--reps", type=int, default=20)
    p_rep.add_argument("--workers", type=int, default=1)
    p_rep.add_argument("--out", default=None)
    add_sim_flags(p_rep)
    add_common_flags(p_rep)
    p_rep.set_defaults(func=cmd_replicate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
