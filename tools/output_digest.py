"""SHA-256 of every output of a fixed list of `ghsel` commands.

The commands run on the benchmark's own datasets (`bench/datagen.py`, with
the truths and flags of `bench/workloads.py`):

- `select --robust-g --iters 400 --burnin 100` on the gh datasets (5, 0),
  (5, 1), (71, 0), (31, 0), (32, 2) and (7, 0);
- on the gh dataset (71, 0), `enumerate --robust-g`, which scores every
  model and so every GH prior term (about 3 s);
- on the gh dataset (5, 0), the `select` above with `--chains 2
  --screening-init`, which scores the extra chain's start and the
  screening start;
- on the aft datasets (20, 0), (5, 1) and (71, 0): `select --prior product
  --baseline t2 --iters 50000 --burnin 5000`, and `enumerate --prior product
  --baseline t2` with and without `--no-standardize`;
- `replicate` with the `replicate-ah-w2` flags (16 replicates, seed 300),
  with `--workers 1` and `--workers 2`;
- `simulate --n 2000 --p 10 --truth gh --seed 2` under each of the four
  kernels and with `--pgw`, which covers every path of the simulator (at
  the t2 kernel some of its times lie beyond the float range).

Each command runs as its own process with PYTHONHASHSEED=0 against the
`src/` of the checkout this file is in, and writes only to a temporary
directory; `bench/` is read, not written.  Every output file and every
command's stdout is hashed, one `<sha256>  <name>` line each, so two
checkouts produce byte-identical outputs exactly when their listings diff
clean:

    python3 tools/output_digest.py > digest.txt
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # import the benchmark's modules without writing to bench/
sys.path.insert(0, str(ROOT / "bench"))

from datagen import generate, write_csv  # noqa: E402
from workloads import WORKLOADS, chain_seed  # noqa: E402

GH_DATASETS = ((5, 0), (5, 1), (71, 0), (31, 0), (32, 2), (7, 0))
AFT_DATASETS = ((20, 0), (5, 1), (71, 0))
# (workload, dataset) -> the flag sets of its extra `select` or `enumerate` commands
EXTRA_SELECT = {("gh-n5000-p4-robustg", (5, 0)): (("--chains", "2", "--screening-init"),)}
EXTRA_ENUMERATE = {("gh-n5000-p4-robustg", (71, 0)): ((),)}
REPLICATE_SEED = 300
SIMULATE_FLAGS = ("--n", 2000, "--p", 10, "--truth", "gh", "--seed", 2)
SIMULATE_BASELINES = (*(("--baseline", k) for k in ("normal", "logistic", "sech", "t2")),
                      ("--pgw",))


def _commands(tmp: Path):
    """Yield (name, argv, output files) for each command, writing its data."""
    for wl_name, gen_seeds in (("gh-n5000-p4-robustg", GH_DATASETS),
                               ("aft-p4-chain", AFT_DATASETS)):
        wl = WORKLOADS[wl_name]
        for gen_seed in gen_seeds:
            tag = f"{wl_name}-{gen_seed[0]}-{gen_seed[1]}"
            path = tmp / f"{tag}.csv"
            write_csv(path, *generate(gen_seed, wl.n, wl.p, wl.truth))
            for extra in ((),) + EXTRA_SELECT.get((wl_name, gen_seed), ()):
                out = tmp / f"{tag}-select{''.join(extra)}"
                yield (f"{tag} select{' '.join(('',) + extra)}",
                       ["select", path, "--out", out, "--seed", chain_seed(gen_seed),
                        *wl.model_flags, *wl.chain_flags, *extra],
                       [out / name for name in ("summary.json", "trace.jsonl",
                                                "model_probs.csv", "pip.csv")])
            enumerates = ((), ("--no-standardize",)) if wl.enumerate else ()
            for extra in enumerates + EXTRA_ENUMERATE.get((wl_name, gen_seed), ()):
                table = tmp / f"{tag}-enumerate{''.join(extra)}.csv"
                yield (f"{tag} enumerate{' '.join(('',) + extra)}",
                       ["enumerate", path, "--out", table, *wl.model_flags, *extra],
                       [table])
    wl = WORKLOADS["replicate-ah-w2"]
    for workers in (1, 2):
        report = tmp / f"replicate-w{workers}.json"
        yield (f"replicate --workers {workers}",
               ["replicate", "--reps", wl.reps, "--seed", REPLICATE_SEED,
                "--workers", workers, "--out", report, *wl.flags],
               [report])
    for baseline in SIMULATE_BASELINES:
        # a path relative to the command's working directory keeps stdout free of tmp
        table = f"simulate-{baseline[-1].lstrip('-')}.csv"
        yield (f"simulate {' '.join(baseline)}",
               ["simulate", "--out", table, *SIMULATE_FLAGS, *baseline],
               [tmp / table, (tmp / table).with_suffix(".truth.json")])


def main() -> int:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, outputs in _commands(Path(tmp)):
            proc = subprocess.run([sys.executable, "-m", "ghsel.cli", *map(str, argv)],
                                  env=env, cwd=tmp, capture_output=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
                return 1
            print(f"{hashlib.sha256(proc.stdout).hexdigest()}  {name}: stdout", flush=True)
            for path in outputs:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {name}: {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
