#!/usr/bin/env python3
"""Train/eval throughput benchmark for the rrntn package.

    python3 perfbench/run.py --workload simple-rrntn-k100 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ./src. Each
workload is one process and one closed-loop client. It sets the model up
several times (setup_s is the median), then runs cycles for --seconds: one
training round (train_epoch over the training split, always from the same
parameters and dropout stream) followed by one perplexity pass over the
held-out split. Throughputs are medians over cycles. The outputs are
checked on every run (see check_outputs).

--trace 1 alternates untraced and traced cycles and prints the per-layer
metrics from the traced ones (see tracing.py); the difference in training
throughput between the two kinds is the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics that BENCHMARK.json lists for the chosen mode.
"""

import os

# One BLAS thread: a single client on a shared box, and bitwise-reproducible
# reductions. Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
GRAD_RTOL = 1e-7  # directional derivative vs central difference; observed <= 1e-9


def _load_package():
    """Import rrntn from this checkout's src/, or return None."""
    if not (SRC / "rrntn" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import rrntn
    if Path(rrntn.__file__).resolve().parent != (SRC / "rrntn").resolve():
        return None
    return rrntn


def _bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


@dataclass
class Model:
    spec: object
    cfg: object
    params: dict
    train: object  # EncodedSplit a round trains on
    held: object  # EncodedSplit an eval pass scores
    table: object  # slice index per token id
    vocab: object


def setup(w, inputs, seed, tracer=None):
    """Program work before the first timed window; returns (Model, seconds)."""
    from rrntn import corpus, linalg, mapping, models, training

    def call(name, fn, *args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs) if tracer else fn(*args, **kwargs)

    t0 = time.perf_counter()
    tokens = (corpus.sentence_token_stream(inputs.corpus) if w.regime == "simple"
              else inputs.corpus)
    vocab = call("corpus.vocab", corpus.build_vocab, tokens, max_size=w.v - 1)
    if vocab.size != w.v:
        raise RuntimeError(f"generated corpus gave V={vocab.size}, expected {w.v}")
    train = call("corpus.encode", corpus.encode, vocab, inputs.train)
    held = call("corpus.encode", corpus.encode, vocab, inputs.eval)
    spec = models.ModelSpec(family=w.family, v=vocab.size, h=w.h, e=w.e, k=w.k,
                            policy=w.policy)
    table = call("mapping.table", mapping.slice_assignments, spec.v, spec.mapping_policy())
    make_cfg = training.TrainConfig.simple if w.regime == "simple" else training.TrainConfig.gated
    cfg = make_cfg(seed)
    params = call("models.init", models.init_params, spec, cfg.init, linalg.Rng(seed).derive(0))
    # Warm-up: one window at lr 0, which leaves the parameters bit-identical.
    n = cfg.t_bptt + 1 if cfg.regime == "simple" else cfg.batch * (cfg.t_bptt + 1)
    warm = corpus.EncodedSplit(train.ids[:n], train.boundaries[:1])
    call("training.warmup", training.train_epoch, params, spec, cfg, warm, 0.0,
         linalg.Rng(seed).derive(1, 0))
    return Model(spec, cfg, params, train, held, table, vocab), time.perf_counter() - t0


def train_windows(m):
    from rrntn import corpus
    if m.cfg.regime == "simple":
        return list(corpus.chunk_sentences(m.train, m.cfg.t_bptt))
    return list(corpus.chunk_stream(m.train, m.cfg.t_bptt, m.cfg.batch))


@dataclass
class Phase:
    rates: list  # tokens/s of untraced rounds or passes
    traced_rates: list
    ppls: list  # perplexity of every round or pass, in order


def _timed(tracer, traced, run_id, span, fn, *args):
    """Run fn, wrapped and under a span when traced; returns (result, seconds)."""
    if traced:
        tracer.run_id = run_id
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = tracer.call(span, fn, *args) if traced else fn(*args)
    finally:
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
    return out, dt


def run_cycles(m, seed, budget, tracer, tokens):
    """Cycles of one training round then one eval pass, for `budget` seconds.

    Every round restarts from the same parameters and dropout stream, so the
    parameters an eval pass scores are the same in every cycle. Interleaving
    the two spreads both over the whole run, so a slow spell on a shared
    machine hits train and eval samples alike. Traced runs alternate
    untraced and traced cycles. After the first round the parameters make a
    checkpoint round trip; returns (train, eval, checkpoint info).
    """
    import numpy as np
    from rrntn import evaluation, linalg, training

    snapshot = {k: v.copy() for k, v in m.params.items()}
    eval_tokens = len(m.held.ids) - 1
    train, evals = Phase([], [], []), Phase([], [], [])
    ckpt = None
    start = time.perf_counter()
    i = 0
    while i < (2 if tracer else 1) or time.perf_counter() - start < budget:
        traced = tracer is not None and i % 2 == 1
        for k, v in snapshot.items():
            np.copyto(m.params[k], v)
        result, dt = _timed(tracer, traced, f"train-{i}", "training.epoch", training.train_epoch,
                            m.params, m.spec, m.cfg, m.train, m.cfg.lr0,
                            linalg.Rng(seed).derive(1, 1))
        (train.traced_rates if traced else train.rates).append(tokens / dt)
        train.ppls.append(result.train_ppl)
        if ckpt is None:
            ckpt = checkpoint_round_trip(m, tracer)
        ppl, dt = _timed(tracer, traced, f"eval-{i}", "evaluation.perplexity",
                         evaluation.perplexity, m.params, m.spec, m.held, m.cfg.t_bptt)
        (evals.traced_rates if traced else evals.rates).append(eval_tokens / dt)
        evals.ppls.append(ppl)
        i += 1
    return train, evals, ckpt


def checkpoint_round_trip(m, tracer):
    """Save and reload the trained parameters as `rrntn eval` would; returns
    (reloaded copy equals the original, checkpoint MB)."""
    import hashlib
    from rrntn import cli

    def call(name, fn, *args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs) if tracer else fn(*args, **kwargs)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"ckpt-{os.getpid()}.bin"
    sha = hashlib.sha256("\n".join(m.vocab.words).encode()).hexdigest()
    if tracer:
        tracer.run_id = "ckpt"
    try:
        call("cli.save", cli.save_checkpoint, path, m.params, m.spec, "", sha, 1)
        size = path.stat().st_size / 1e6
        ckpt = call("cli.load", cli.load_checkpoint, path)
    finally:
        path.unlink(missing_ok=True)
    return all((ckpt.params[k] == v).all() for k, v in m.params.items()), size


def directional_grad_error(m, params, chunk, seed) -> float:
    """Relative error of backward_chunk's gradient along one direction.

    The direction mixes, per array, the unit gradient and a unit random
    vector, so every array counts about equally and a zero gradient is
    still probed. Compared against a central difference of forward_chunk's
    loss with the same dropout masks. Perturbs params in place.
    """
    import numpy as np
    from rrntn import linalg, models

    def loss():
        return models.forward_chunk(params, m.spec, chunk, None, mode="train",
                                    rng=linalg.Rng(seed).derive(2), p_drop=m.cfg.p_drop)

    _, _, cache, _ = loss()
    grads, _ = models.backward_chunk(params, m.spec, cache)
    gen = np.random.default_rng(seed)
    dirs, claimed, scale = {}, 0.0, 0.0
    for name, g in grads.items():
        d = gen.standard_normal(g.shape)
        gn = float(np.linalg.norm(g))
        d *= (gn if gn > 0 else 1.0) / np.linalg.norm(d)
        if gn > 0:
            d += g
            d /= gn
        term = float(np.vdot(g, d))
        claimed += term
        scale += abs(term)
        dirs[name] = d
    del grads, cache
    eps = 1e-5
    for name, d in dirs.items():
        d *= eps
        params[name] += d
    up = loss()[0]
    for name, d in dirs.items():
        params[name] -= d
        params[name] -= d
    down = loss()[0]
    numeric = (up - down) / (2 * eps)
    return abs(numeric - claimed) / max(scale, 1e-12)


def check_outputs(w, seed, m, params, train, evals, traced):
    """Every check run on the outputs; each maps to True, False or None (not
    applicable). Pinned values live in expected.json, per workload and seed."""
    import math

    checks = {
        "finite": all(math.isfinite(p) for p in train.ppls + evals.ppls),
        "rounds_identical": len(set(train.ppls)) == 1,
        "passes_identical": len(set(evals.ppls)) == 1,
    }
    if traced:
        checks["trace_unchanged"] = checks["rounds_identical"] and checks["passes_identical"]
    err = directional_grad_error(m, params, train_windows(m)[0], seed)
    checks["gradient"] = err < GRAD_RTOL
    exact = None
    with open(HERE / "expected.json", encoding="utf-8") as f:
        expected = json.load(f)
    pin = expected["pins"].get(w.name, {}).get(str(seed))
    got = (train.ppls[0], evals.ppls[0])
    if pin is None:
        checks["pinned"] = None
    else:
        rtol = expected["rtol"]
        checks["pinned"] = all(abs(a - b) <= rtol * abs(b) for a, b in zip(got, pin))
        exact = list(got) == list(pin)
    info = {"train_ppl": got[0], "eval_ppl": got[1], "pinned_exact": exact,
            "grad_rel_err": err}
    return checks, info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    return {"blas": name, "blas_threads": BLAS_THREADS, "numpy": np.__version__}


def run_one(args) -> int:
    from rrntn.models import DivergenceError
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, generate

    bench = _bench_spec()
    w = WORKLOADS[args.workload]
    inputs = generate(w, args.seed)
    header = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), **blas_info(),
              "python": sys.version.split()[0], "inputs": inputs.digest,
              "client": "1 closed-loop process"}
    print("# " + json.dumps(header), flush=True)

    tracer = Tracer() if args.trace else None
    setup_times = []
    for rep in range(SETUP_REPS):
        m = None  # free the previous model before building the next
        if tracer:
            tracer.run_id = f"setup-{rep}"
        m, dt = setup(w, inputs, args.seed, tracer)
        setup_times.append(dt)
    windows = train_windows(m)
    tokens = sum(c.inputs.size for c in windows)

    try:
        train, evals, (same_ckpt, ckpt_mb) = run_cycles(m, args.seed, args.seconds, tracer,
                                                        tokens)
    except DivergenceError as err:
        print(f"# diverged: {err}", flush=True)
        print(json.dumps({"correct": False, "attempted": len(windows), "failed": 1,
                          "metrics": {}}))
        return 0
    attempted = len(windows) * (len(train.rates) + len(train.traced_rates))
    rss = peak_rss_mb()

    checks, info = check_outputs(w, args.seed, m, m.params, train, evals, bool(tracer))
    checks["checkpoint_round_trip"] = same_ckpt
    correct = all(v is not False for v in checks.values())
    failed = 0 if correct else 1
    print("# checks " + json.dumps(checks), flush=True)
    print("# outputs " + json.dumps(info), flush=True)

    computed = {
        "train_tok_s": statistics.median(train.rates),
        "eval_tok_s": statistics.median(evals.rates),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
        "failed_share": failed / attempted,
    }
    print(f"# rounds={len(train.rates) + len(train.traced_rates)} "
          f"passes={len(evals.rates) + len(evals.traced_rates)} windows/round={len(windows)} "
          f"tokens/round={tokens} eval_tokens/pass={len(m.held.ids) - 1}")
    print("# train tok/s by round " + " ".join(f"{r:.1f}" for r in train.rates))
    print("# eval tok/s by pass " + " ".join(f"{r:.1f}" for r in evals.rates))
    print("# setup s by repetition " + " ".join(f"{t:.4f}" for t in setup_times))
    listed = bench["end_to_end"]
    if tracer:
        computed.update(layer_metrics(tracer, m.table, m.spec.k))
        computed["cli.ckpt_mb"] = ckpt_mb
        untraced = statistics.median(train.rates)
        traced = statistics.median(train.traced_rates)
        computed["trace.overhead_tok_s"] = untraced - traced
        computed["trace.overhead_share"] = (untraced - traced) / untraced
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{w.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"# spans={len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        if tracer.missing:
            print("# missing " + json.dumps(sorted(tracer.missing)))
        listed = bench["per_layer"]
    units = {x["name"]: x["unit"] for x in bench["end_to_end"] + bench["per_layer"]}
    for name, value in computed.items():
        print(f"{name:32s} {value:14.6g} {units.get(name, '')}")
    metrics = {x["name"]: {"value": computed[x["name"]], "unit": x["unit"]}
               for x in listed if x["name"] in computed}
    absent = [x["name"] for x in listed if x["name"] not in computed]
    if absent:
        print("# missing metrics " + json.dumps(absent))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints one table for all of them."""
    from workloads import WORKLOADS

    rows, results = [], {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = result
        for metric, v in result["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "failed_share", result["failed"] / result["attempted"], "ratio"))
    print()
    for row in rows:
        print(f"{row[0]:20s} {row[1]:32s} {row[2]:14.6g} {row[3]}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if _load_package() is None:
        print(f"error: rrntn sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
