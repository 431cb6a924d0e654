"""Span tracer for the traced benchmark run.

`Tracer.install()` replaces every public function of each `ghsel` module (and
the few methods and private writers named in `_EXTRA`) with a wrapper that
records one span per call: its layer, its duration, and the time its child
spans covered.  A layer's self time is the sum over its spans of duration
minus child time.  Spans and counts live in memory; `uninstall()` puts the
original functions back, so untraced commands in the same process run the
program's own code.

`ghsel replicate --workers N` runs replicates in pool processes.  The
replicate entry point is swapped for `traced_replicate`, which records the
replicate's spans in the worker and leaves them in a JSON file that the
parent merges after the command.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import time
from collections import Counter
from pathlib import Path

LAYERS = ("baseline", "ghlik", "modelspace", "optimize", "priors", "marglik",
          "sampler", "summarize", "simulate", "cli")
BASELINE_KERNEL_FNS = ("log_f", "log_F_neg", "ratio_f_over_Fneg",
                       "ratio_fprime_over_f", "ratio_fsecond_over_f",
                       "ratio_fprime_over_Fneg")
_FITS = ("fit_mle", "fit_map")
_LIK_EVALS = ("loglik", "grad_loglik")
# Entry points that are not public module functions but are layer boundaries.
_EXTRA = {
    "marglik": ("ModelScorer.score", "MarglikCache.get", "MarglikCache.put"),
    "cli": ("_write_json", "_write_probs_csv", "_write_pip_csv",
            "_write_trace_jsonl"),
}
TRACE_DIR_ENV = "GHSEL_BENCH_TRACE_DIR"


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50"):
        return "ms"
    return {"optimize.evals_per_fit": "evals/fit", "cli.trace_bytes": "bytes",
            "replicate.pool_busy_ratio": "ratio"}.get(name, "count")


_active = None  # the installed Tracer; worker processes inherit it by fork


class Tracer:
    def __init__(self):
        self._patches = []
        self.owner_pid = os.getpid()
        self.reset()

    def reset(self):
        self.stack = []          # open spans: [child seconds, child marglik seconds]
        self.calls = Counter()   # "layer.fn" -> calls
        self.incl = Counter()    # "layer.fn" -> inclusive seconds
        self.self_s = Counter()  # layer -> self seconds
        self.count = Counter()   # derived counters (hits, converged fits, ...)
        self.fit_s = []          # inclusive seconds of each fit
        self.rep_s = []          # inclusive seconds of each replicate
        self._last_proposal = None

    # -- installation -----------------------------------------------------

    def install(self):
        global _active
        modules = {layer: importlib.import_module(f"ghsel.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("ghsel"), *modules.values()]
        originals = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    originals[obj] = self._wrap(layer, name, obj)
            for dotted in _EXTRA.get(layer, ()):
                owner, _, attr = dotted.rpartition(".")
                target = getattr(mod, owner) if owner else mod
                fn = vars(target).get(attr) if inspect.isclass(target) else getattr(mod, attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap(layer, dotted, fn)
                if inspect.isclass(target):
                    self._patch(target, attr, wrapped)
                else:
                    originals[fn] = wrapped
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patch(ns, name, originals[obj])
        cli = modules["cli"]
        self._replicate = self._wrap("cli", "_run_replicate", cli._run_replicate)
        self._patch(cli, "_run_replicate", traced_replicate)
        _active = self

    def uninstall(self):
        global _active
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()
        _active = None

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # -- spans ------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        enter = getattr(self, f"_enter_{name.replace('.', '_')}", None)
        leave = getattr(self, f"_leave_{name.replace('.', '_')}", None)
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = enter(args, kwargs) if enter else None
            frame = [0.0, 0.0]
            stack = self.stack
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                self.calls[key] += 1
                self.incl[key] += dur
                self.self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                    if layer == "marglik":
                        stack[-1][1] += dur
            if leave:
                leave(args, kwargs, result, dur, frame, state)
            return result

        return span

    def _lik_evals(self):
        return sum(self.calls[f"ghlik.{f}"] for f in _LIK_EVALS)

    def _enter_fit(self, args, kwargs):
        return self._lik_evals()

    def _leave_fit(self, args, kwargs, result, dur, frame, evals_before):
        self.fit_s.append(dur)
        self.count["fits_converged"] += bool(result.ok)
        self.count["lik_evals_in_fits"] += self._lik_evals() - evals_before

    _enter_fit_mle = _enter_fit_map = _enter_fit
    _leave_fit_mle = _leave_fit_map = _leave_fit

    def _leave_MarglikCache_get(self, args, kwargs, result, dur, frame, state):
        self.count["cache_hits"] += result is not None

    def _leave_MarglikCache_put(self, args, kwargs, result, dur, frame, state):
        record = args[2] if len(args) > 2 else kwargs["record"]
        self.count["failed_records"] += bool(record.log_ml == -math.inf)

    def _leave_propose(self, args, kwargs, result, dur, frame, state):
        self._last_proposal = result

    def _enter_mh_step(self, args, kwargs):
        trace = args[5] if len(args) > 5 else kwargs.get("trace")
        self._last_proposal = None
        visited = getattr(trace, "visited", None)
        return (visited, len(visited)) if visited is not None else None

    def _leave_mh_step(self, args, kwargs, result, dur, frame, state):
        self.count["step_self_s"] += dur - frame[1]
        prop = self._last_proposal
        if state is not None and prop is not None and prop.log_hastings != -math.inf:
            visited, before = state
            self.count["visited_hits"] += len(visited) == before

    # -- merging worker spans -----------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self_s": dict(self.self_s), "count": dict(self.count),
                "fit_s": self.fit_s, "rep_s": self.rep_s}

    def merge(self, snap: dict):
        self.calls.update(snap["calls"])
        self.incl.update(snap["incl"])
        self.self_s.update(snap["self_s"])
        self.count.update(snap["count"])
        self.fit_s.extend(snap["fit_s"])
        self.rep_s.extend(snap["rep_s"])

    def merge_worker_files(self, directory: Path):
        for path in sorted(directory.glob("rep-*.json")):
            self.merge(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self, wall_s: float, workers: int, trace_bytes: int) -> dict:
        calls, incl, self_s, count = self.calls, self.incl, self.self_s, self.count
        fits = sum(calls[f"optimize.{f}"] for f in _FITS)
        return {
            "baseline.calls": sum(calls[f"baseline.{f}"] for f in BASELINE_KERNEL_FNS),
            "baseline.self_s": self_s["baseline"],
            "ghlik.loglik_calls": calls["ghlik.loglik"],
            "ghlik.grad_calls": calls["ghlik.grad_loglik"],
            "ghlik.hess_calls": calls["ghlik.hess_loglik"],
            "ghlik.self_s": self_s["ghlik"],
            "modelspace.classify_calls": calls["modelspace.classify"],
            "modelspace.classify_s": incl["modelspace.classify"],
            "optimize.fits": fits,
            "optimize.fits_converged": count["fits_converged"],
            "optimize.evals_per_fit": (count["lik_evals_in_fits"] / len(self.fit_s)
                                       if self.fit_s else 0.0),
            "optimize.fit_ms_p50": 1e3 * statistics.median(self.fit_s) if self.fit_s else 0.0,
            "optimize.self_s": self_s["optimize"],
            "priors.self_s": self_s["priors"],
            "marglik.score_calls": calls["marglik.ModelScorer.score"],
            "marglik.cache_hits": count["cache_hits"],
            "marglik.failed": count["failed_records"],
            "marglik.closed_form_evals": calls["marglik.ila_from_fit"],
            "marglik.self_s": self_s["marglik"],
            "sampler.steps": calls["sampler.mh_step"],
            "sampler.visited_hits": count["visited_hits"],
            "sampler.propose_s": incl["sampler.propose"],
            "sampler.step_self_s": count["step_self_s"],
            "summarize.self_s": self_s["summarize"],
            "cli.read_s": incl["cli.read_dataset"],
            "cli.write_s": sum(incl[f"cli.{w}"] for w in _EXTRA["cli"]),
            "cli.trace_bytes": trace_bytes,
            "simulate.self_s": self_s["simulate"],
            "replicate.pool_busy_ratio": (sum(self.rep_s) / (workers * wall_s)
                                          if self.rep_s else 0.0),
        }


METRIC_NAMES = tuple(Tracer().metrics(1.0, 1, 0))
UNITS = {name: _unit(name) for name in METRIC_NAMES}


def traced_replicate(rep_args):
    """Stand-in for `ghsel.cli._run_replicate` while tracing is installed.

    Module-level so the process pool can pickle it by name.  In a worker
    process the inherited tracer is emptied first, and the replicate's spans
    are written to the directory named by GHSEL_BENCH_TRACE_DIR."""
    tracer = _active
    in_worker = os.getpid() != tracer.owner_pid
    if in_worker:
        tracer.reset()
    t0 = time.perf_counter()
    result = tracer._replicate(rep_args)
    tracer.rep_s.append(time.perf_counter() - t0)
    if in_worker:
        out = Path(os.environ[TRACE_DIR_ENV]) / f"rep-{os.getpid()}-{rep_args[2]}.json"
        out.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    return result
