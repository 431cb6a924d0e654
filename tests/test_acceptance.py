"""End-to-end acceptance suite: nine numbered criteria, each printing one
PASS/FAIL line with its headline numbers.  Run with `pytest -v -s` to see the
lines as they complete."""

import math
import sys
import time

import numpy as np
import pytest
from scipy import integrate

import oracles
import proposal_audit
from ghsel import baseline as bl
from ghsel.baseline import Kernel
from ghsel.ghlik import Dataset, design, dim_psi, evaluate
from ghsel import marglik
from ghsel.marglik import (LOG_2PI, MarglikMethod, ModelScorer, ScorerConfig,
                           ila_from_fit)
from ghsel.modelspace import (Gamma, HazardClass, classify, enumerate_models,
                              log_model_prior)
from ghsel.priors import (NU_MEAN, NU_SD, THETA0_VAR, CoefficientPrior,
                          robust_g_logpdf, robust_g_support_bound)
from ghsel.sampler import ChainConfig, run_chain
from ghsel.simulate import SimConfig, protocol_truth, simulate_dataset
from ghsel.summarize import (hazard_posterior, pip, probs_frequency,
                             probs_renormalized, score_selection, top_model)

from test_marglik import ila_quadrature_reference


REPORT_LINES = []


def report(num, name, ok, detail):
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    REPORT_LINES.append(line)
    print(line, file=sys.stderr)
    assert ok, line


def standardized(data):
    X = data.X
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    return Dataset(t=data.t, delta=data.delta, X=(X - X.mean(axis=0)) / sd,
                   names=data.names)


def sim_standardized(cfg):
    raw, truth = simulate_dataset(cfg)
    return standardized(raw), truth


# ---------------------------------------------------------------------------

def test_criterion_1_derivatives():
    start = time.time()
    rng = np.random.default_rng(123)
    kernels = list(Kernel)
    max_g, max_h = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(10, 41))
        p = int(rng.integers(1, 5))
        X = rng.standard_normal((n, p))
        t = rng.gamma(2.0, 1.5, n)
        delta = (rng.random(n) < 0.7).astype(float)
        data = Dataset(t=t, delta=delta, X=X, names=())
        models = [g for g in enumerate_models(p)]
        gamma = models[int(rng.integers(len(models)))]
        kernel = kernels[int(rng.integers(4))]
        psi = rng.normal(0.0, 0.3, dim_psi(gamma))

        des = design(gamma, data, kernel)

        def fn(x):
            return evaluate(des, x)[0]

        g = evaluate(des, psi)[1]
        fd_g = oracles.fd_grad(fn, psi)
        max_g = max(max_g, float(np.max(np.abs(g - fd_g) / (1.0 + np.abs(fd_g)))))
        H = evaluate(des, psi)[2]
        fd_h = oracles.fd_hess(fn, psi)
        max_h = max(max_h, float(np.max(np.abs(H - fd_h) / (1.0 + np.abs(fd_h)))))
    dt = time.time() - start
    ok = max_g <= 1e-5 and max_h <= 1e-4 and dt < 60
    report(1, "derivative correctness", ok,
           f"200 configs: max grad rel err {max_g:.2e} (tol 1e-5), "
           f"max hess rel err {max_h:.2e} (tol 1e-4), {dt:.1f}s")


def test_criterion_2_ratio_closed_forms():
    us = np.linspace(-5.0, 5.0, 201)
    h = 1e-3

    def d1(fn, x):
        return (-fn(x + 2 * h) + 8 * fn(x + h)
                - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)

    def d2(fn, x):
        return (-fn(x + 2 * h) + 16 * fn(x + h) - 30 * fn(x)
                + 16 * fn(x - h) - fn(x - 2 * h)) / (12 * h * h)

    worst = 0.0
    for kernel in Kernel:
        lf = lambda u: bl.log_f(u, kernel)
        lF = lambda u: bl.log_F_neg(u, kernel)
        for u in us:
            dlf = d1(lf, u)
            d2lf = d2(lf, u)
            r1_num = -d1(lF, u)                               # f/F(-u)
            rp_num = dlf                                      # f'/f
            rs_num = d2lf + dlf * dlf                         # f''/f
            rpF_num = rp_num * r1_num                         # f'/F(-u)
            scale = lambda x: 1.0 + abs(x)
            worst = max(
                worst,
                abs(bl.ratio_f_over_Fneg(u, kernel) - r1_num) / scale(r1_num),
                abs(bl.ratio_fprime_over_f(u, kernel) - rp_num) / scale(rp_num),
                abs(bl.ratio_fsecond_over_f(u, kernel) - rs_num) / scale(rs_num),
                abs(bl.ratio_fprime_over_Fneg(u, kernel) - rpF_num) / scale(rpF_num),
            )
    ok = worst <= 1e-6
    report(2, "ratio closed forms", ok,
           f"all four families on |u|<=5: max rel err {worst:.2e} (tol 1e-6)")


def test_criterion_3_model_space():
    counts = {p: len(list(enumerate_models(p))) for p in (1, 2, 3)}
    counts_ok = counts == {1: 5, 2: 19, 3: 71}
    worst = 0.0
    for p in (1, 2, 3):
        models = list(enumerate_models(p))
        logw = {g.key: log_model_prior(g) for g in models}
        m = max(logw.values())
        z = sum(math.exp(v - m) for v in logw.values())
        probs = {k: math.exp(v - m) / z for k, v in logw.items()}
        for size in range(1, p + 1):
            mass = {c: 0.0 for c in HazardClass}
            omega_mass = {}
            for g in models:
                if g.n_active != size:
                    continue
                mass[classify(g)] += probs[g.key]
                if classify(g) is HazardClass.GH:
                    from ghsel.modelspace import effect_count
                    omega_mass[effect_count(g)] = \
                        omega_mass.get(effect_count(g), 0.0) + probs[g.key]
            ref = mass[HazardClass.AH]
            for c in (HazardClass.PH, HazardClass.AFT, HazardClass.GH):
                worst = max(worst, abs(mass[c] - ref))
            if len(omega_mass) > 1:
                vals = list(omega_mass.values())
                for v in vals[1:]:
                    worst = max(worst, abs(v - vals[0]))
    ok = counts_ok and worst <= 1e-12
    report(3, "model-space arithmetic", ok,
           f"counts {counts}; class/omega mass imbalance {worst:.2e} (tol 1e-12)")


def test_criterion_4_marglik_oracle():
    start = time.time()
    prior = CoefficientPrior()
    problems = [("00", 0), ("20", 1), ("10", 2), ("12", 3), ("22", 4),
                ("30", 5), ("00", 6), ("21", 7), ("11", 8), ("44", 9)]
    worst_ila, worst_la = 0.0, 0.0
    for key, seed in problems:
        gamma = Gamma.from_key(key)
        # score each model on data it is well specified for, with moderate
        # effects: the Gaussian approximations are only claimed accurate in
        # that regime at n=30
        alpha, beta = np.zeros(2), np.zeros(2)
        for j, c in enumerate(gamma.codes):
            v = 0.5 if j == 0 else -0.35
            if c in (1, 3, 4):
                alpha[j] = v
            if c in (2, 3):
                beta[j] = v
            if c == 4:
                beta[j] = alpha[j]
        cfg = SimConfig(n=30, p=2, truth=gamma, alpha=alpha, beta=beta,
                        target_censoring=0.2, seed=seed)
        data, _ = sim_standardized(cfg)
        assert dim_psi(gamma) <= 4
        rec_i = ModelScorer(data, Kernel.NORMAL, ScorerConfig()).score(gamma)
        ref_i = ila_quadrature_reference(gamma, data, Kernel.NORMAL, 1.0, rec_i.fit)
        worst_ila = max(worst_ila, abs(rec_i.log_ml - ref_i))
        rec_l = ModelScorer(data, Kernel.NORMAL,
                            ScorerConfig(MarglikMethod.LA, prior)).score(gamma)
        log_prior = oracles.map_prior_reference(gamma, data, prior)
        des = design(gamma, data, Kernel.NORMAL)
        # the LA score leaves out the model-independent log(2*pi)
        ref_l = oracles.gauss_hermite_log_integral(lambda psi: evaluate(des, psi)[0],
                                                   log_prior, rec_l.fit.psi_opt)
        worst_la = max(worst_la, abs(rec_l.log_ml + LOG_2PI - ref_l))

    # synthetic exactly-Gaussian likelihood: closed form vs Gaussian algebra
    rng = np.random.default_rng(99)
    worst_gauss = 0.0
    for _ in range(5):
        d = int(rng.integers(1, 4))
        k = 2 + d
        A = rng.standard_normal((k, k))
        J = A @ A.T + k * np.eye(k)
        psi_hat = rng.normal(0.0, 1.0, k)
        ell_hat = float(rng.normal())
        got = ila_from_fit(ell_hat, psi_hat, J, d, 50, 2.0)
        ng = 100.0
        pp = np.zeros((k, k))
        pp[0, 0] = 1.0 / NU_SD ** 2
        pp[1, 1] = 1.0 / THETA0_VAR
        pp[2:, 2:] = J[2:, 2:] / ng
        Afull = J + pp
        b = J @ psi_hat
        b[0] += NU_MEAN / NU_SD ** 2
        c = (ell_hat - 0.5 * psi_hat @ J @ psi_hat
             - 0.5 * NU_MEAN ** 2 / NU_SD ** 2)
        _, ld_pp = np.linalg.slogdet(J[2:, 2:] / ng)
        log_norm = (-0.5 * k * math.log(2 * math.pi) + 0.5 * ld_pp
                    - 0.5 * math.log(NU_SD ** 2) - 0.5 * math.log(THETA0_VAR))
        _, ld_A = np.linalg.slogdet(Afull)
        ref = (c + 0.5 * b @ np.linalg.solve(Afull, b)
               + 0.5 * k * math.log(2 * math.pi) - 0.5 * ld_A + log_norm)
        worst_gauss = max(worst_gauss, abs(got - ref))
    dt = time.time() - start
    ok = worst_ila <= 0.15 and worst_la <= 0.15 and worst_gauss <= 1e-10 \
        and dt < 300
    report(4, "marginal-likelihood oracle", ok,
           f"10 problems n=30: max |ILA-quad| {worst_ila:.3f}, max |LA-quad| "
           f"{worst_la:.3f} (tol 0.15); exact-Gaussian ILA err "
           f"{worst_gauss:.2e} (tol 1e-10); {dt:.0f}s")


class _ConstScorer:
    class Rec:
        log_ml = 0.0

    def __init__(self, data):
        self.data = data

    def score(self, gamma):
        return self.Rec()


def test_criterion_5_sampler_exactness():
    start = time.time()
    rng_data = np.random.default_rng(0)
    tiny = Dataset(t=rng_data.gamma(2, 1, 20), delta=np.ones(20),
                   X=rng_data.standard_normal((20, 2)), names=())
    # (a) prior-only chain
    cfg = ChainConfig(iterations=1_000_000, burn_in=10_000, thin=1, seed=0)
    trace = run_chain(_ConstScorer(tiny), cfg)
    freq = probs_frequency(trace)
    logw = {g.key: log_model_prior(g) for g in enumerate_models(2)}
    m = max(logw.values())
    z = sum(math.exp(v - m) for v in logw.values())
    exact_prior = {k: math.exp(v - m) / z for k, v in logw.items()}
    tv_a = 0.5 * sum(abs(freq.get(k, 0.0) - q) for k, q in exact_prior.items())

    # (b) posterior chains vs exact enumeration, both scoring routes
    cfg_sim = SimConfig(n=200, p=2, truth=Gamma.from_key("20"),
                        alpha=np.zeros(2), beta=np.array([1.0, 0.0]),
                        target_censoring=0.2, seed=1)
    data, _ = sim_standardized(cfg_sim)
    results = {}
    for label, scfg in (
            ("ILA/LCM", ScorerConfig(method=MarglikMethod.ILA)),
            ("LA/Product", ScorerConfig(method=MarglikMethod.LA))):
        scorer = ModelScorer(data, Kernel.NORMAL, scfg)
        exact_scores = {}
        for g in enumerate_models(2):
            exact_scores[g.key] = scorer.score(g).log_ml + log_model_prior(g)
        m = max(v for v in exact_scores.values() if np.isfinite(v))
        z = sum(math.exp(v - m) for v in exact_scores.values()
                if np.isfinite(v))
        exact = {k: (math.exp(v - m) / z if np.isfinite(v) else 0.0)
                 for k, v in exact_scores.items()}
        ch = ChainConfig(iterations=50_000, burn_in=5_000, thin=1, seed=2)
        tr = run_chain(scorer, ch)
        fr = probs_frequency(tr)
        rn = probs_renormalized(tr)
        tv_f = 0.5 * sum(abs(fr.get(k, 0.0) - q) for k, q in exact.items())
        tv_r = 0.5 * sum(abs(rn.get(k, 0.0) - q) for k, q in exact.items())
        results[label] = (tv_f, tv_r)
    dt = time.time() - start
    ok = (tv_a <= 0.02 and dt < 600
          and all(f <= 0.05 and r <= 0.01 for f, r in results.values()))
    detail = (f"prior-only TV {tv_a:.4f} (tol 0.02); "
              + "; ".join(f"{lbl}: freq TV {f:.4f} (tol 0.05), renorm TV "
                          f"{r:.2e} (tol 0.01)"
                          for lbl, (f, r) in results.items())
              + f"; {dt:.0f}s")
    report(5, "sampler exactness", ok, detail)


def test_criterion_6_proposal_audit():
    start = time.time()
    n_paths = 0
    for p in (1, 2, 3):
        adjacency = {}
        for g in enumerate_models(p):
            adjacency[g.key] = proposal_audit.audit_state(g)
            n_paths += sum(1 for _ in proposal_audit.enumerate_paths(g))
        assert proposal_audit.strongly_connected(adjacency)
    dt = time.time() - start
    ok = dt < 60
    report(6, "proposal audit", ok,
           f"p<=3 exhaustive: {n_paths} paths verified, graphs strongly "
           f"connected, {dt:.1f}s")


def _run_ph_replicate(n, seed):
    truth, alpha, beta = protocol_truth(10, HazardClass.PH)
    cfg = SimConfig(n=n, p=10, truth=truth, alpha=alpha, beta=beta,
                    target_censoring=0.25, seed=seed)
    data, _ = sim_standardized(cfg)
    trace = run_chain(ModelScorer(data, Kernel.NORMAL, ScorerConfig()),
                      ChainConfig(iterations=20_000, burn_in=10_000, thin=2,
                                  seed=seed))
    renorm = probs_renormalized(trace)
    hz = hazard_posterior(renorm)
    modal = max(hz.items(), key=lambda kv: kv[1])[0]
    hpm = Gamma.from_key(top_model(renorm))
    sens, spec = score_selection(hpm, truth)
    pip_any, _ = pip(renorm)
    strong = [i for i in truth.active if abs(beta[i]) == 1.0]
    return modal, spec, [pip_any[i] for i in strong], hz[HazardClass.PH]


def test_criterion_7_simulation_study():
    start = time.time()
    reps = 20
    modal_ph = 0
    specs, strong_pips, ph_post_1000, ph_post_250 = [], [], [], []
    for r in range(reps):
        modal, spec, pips, ph_prob = _run_ph_replicate(1000, 1000 + r)
        modal_ph += modal is HazardClass.PH
        specs.append(spec)
        strong_pips.extend(pips)
        ph_post_1000.append(ph_prob)
    for r in range(reps):
        _, _, _, ph_prob = _run_ph_replicate(250, 2000 + r)
        ph_post_250.append(ph_prob)
    mean_spec = float(np.mean(specs))
    mean_pip = float(np.mean(strong_pips))
    m1000, m250 = float(np.mean(ph_post_1000)), float(np.mean(ph_post_250))
    dt = time.time() - start
    ok = (modal_ph >= 16 and mean_spec >= 0.95 and mean_pip >= 0.9
          and m1000 > m250 and dt < 7200)
    report(7, "scaled simulation study", ok,
           f"modal PH {modal_ph}/20 (need >=16); mean HPM specificity "
           f"{mean_spec:.3f} (need >=0.95); mean strong-variable PIP "
           f"{mean_pip:.3f} (need >=0.9); mean P(PH) n=1000 {m1000:.3f} vs "
           f"n=250 {m250:.3f} (need increasing); {dt:.0f}s")


def test_criterion_8_robust_hyper_g(monkeypatch):
    # (i) density integrates to one
    worst_int = 0.0
    for n, d in ((30, 1), (200, 2), (1000, 4)):
        bound = robust_g_support_bound(n, d)

        def dens(y):
            g = math.exp(y) - 1.0 / n
            return math.exp(robust_g_logpdf(g, n, d) + y)

        lo = math.log(bound + 1.0 / n) + 1e-13
        total, _ = integrate.quad(dens, lo, math.log(1e12), limit=400)
        c = 0.5 * math.sqrt((1.0 + n) / (n * (d + 1.0)))
        tail = 2.0 * c / math.sqrt(1e12 + 1.0 / n)
        worst_int = max(worst_int, abs(total + tail - 1.0))

    # (ii) null-model equality and (iii) cutoff doubling
    cfg_sim = SimConfig(n=60, p=2, truth=Gamma.from_key("20"),
                        alpha=np.zeros(2), beta=np.array([1.0, 0.0]),
                        target_censoring=0.2, seed=5)
    data, _ = sim_standardized(cfg_sim)
    null = Gamma.from_key("00")
    robust_cfg = ScorerConfig(MarglikMethod.ILA_ROBUST_G)
    fixed = ModelScorer(data, Kernel.NORMAL, ScorerConfig()).score(null)
    robust = ModelScorer(data, Kernel.NORMAL, robust_cfg).score(null)
    null_exact = robust.log_ml == fixed.log_ml
    g22 = Gamma.from_key("22")
    assert marglik.ROBUST_G_CUTOFF == 1e6
    a = ModelScorer(data, Kernel.NORMAL, robust_cfg).score(g22)
    monkeypatch.setattr(marglik, "ROBUST_G_CUTOFF", 2e6)
    b = ModelScorer(data, Kernel.NORMAL, robust_cfg).score(g22)
    delta = abs(a.log_ml - b.log_ml)
    ok = worst_int <= 1e-6 and null_exact and delta < 1e-8
    report(8, "robust hyper-g", ok,
           f"density integral off by {worst_int:.2e} (tol 1e-6); null "
           f"robust==fixed: {null_exact}; cutoff-doubling delta {delta:.2e} "
           f"(tol 1e-8)")


def test_criterion_9_aft_reduction():
    rng = np.random.default_rng(7)
    n, p = 25, 3
    X = rng.standard_normal((n, p))
    t = rng.gamma(2.0, 1.0, n)
    delta = (rng.random(n) < 0.7).astype(float)
    data = Dataset(t=t, delta=delta, X=X, names=())
    aft = Gamma.from_key("440")
    gh = Gamma.from_key("330")
    kernels = list(Kernel)
    worst = 0.0
    for i in range(100):
        psi_aft = rng.normal(0.0, 0.5, dim_psi(aft))
        nu = psi_aft[0]
        theta = psi_aft[2:]
        psi_gh = np.concatenate((psi_aft[:2], theta, np.exp(-nu) * theta))
        kernel = kernels[i % 4]
        la = evaluate(design(aft, data, kernel), psi_aft)[0]
        lg = evaluate(design(gh, data, kernel), psi_gh)[0]
        worst = max(worst, abs(la - lg) / max(1.0, abs(lg)))
    ok = worst <= 1e-12
    report(9, "tied-effect reduction identity", ok,
           f"100 draws, all kernels: max rel discrepancy {worst:.2e} "
           f"(tol 1e-12)")
