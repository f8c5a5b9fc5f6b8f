"""Spans around the package's layers, recorded from outside the package.

The tracer replaces module-level names that train_epoch, perplexity and the
forward pass look up at call time (rrntn.training.forward_chunk,
rrntn.models.softmax, ...) with timing wrappers, and restores them after each
traced round. Spans are kept in memory as [name, start_ns, end_ns, parent,
run_id] and written once, at the end of a run. A name that no longer exists
in the package is recorded as missing, and the metrics that need it are
omitted instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name, hook); the hook gets (args, result) after the call.
TARGETS = (
    ("rrntn.training", "chunk_sentences", "corpus.chunk", "window"),
    ("rrntn.training", "chunk_stream", "corpus.chunk", "window"),
    ("rrntn.training", "forward_chunk", "models.forward", "cache"),
    ("rrntn.training", "backward_chunk", "models.backward", "grads"),
    ("rrntn.training", "clip_by_global_norm", "linalg.clip", "clip"),
    ("rrntn.training", "sgd_apply", "training.sgd", "update"),
    ("rrntn.evaluation", "forward_chunk", "models.forward", None),
    ("rrntn.models", "softmax", "linalg.softmax", None),
    ("rrntn.models", "dropout_mask", "linalg.dropout", None),
)

_CHUNK = ("rrntn.training.chunk_sentences", "rrntn.training.chunk_stream")
_FWD, _BWD = ("rrntn.training.forward_chunk",), ("rrntn.training.backward_chunk",)
_CLIP, _SGD = ("rrntn.training.clip_by_global_norm",), ("rrntn.training.sgd_apply",)
_EVAL_FWD = ("rrntn.evaluation.forward_chunk",)
_TRAIN_ALL = (_CHUNK, _FWD, _BWD, _CLIP, _SGD)

# What each per-layer metric reads: groups of wrapped names (a group is met
# when any of its names exists) and hooks. A metric with an unmet need is
# left out of the result and its need is reported as missing.
NEEDS = {
    "training.self_s": _TRAIN_ALL,
    "training.span_coverage": _TRAIN_ALL,
    "training.sgd_s": (_SGD,),
    "training.sgd_ms_p50": (_SGD,),
    "training.update_mb": (_SGD, "hook:update"),
    "models.forward_s": (_FWD,),
    "models.forward_ms_p50": (_FWD,),
    "models.cache_mb_peak": (_FWD, "hook:cache"),
    "models.backward_s": (_BWD,),
    "models.backward_ms_p50": (_BWD,),
    "models.grad_mb": (_BWD, "hook:grads"),
    "models.self_s": (_FWD, _BWD, _EVAL_FWD),
    "linalg.softmax_s": (("rrntn.models.softmax",),),
    "linalg.dropout_s": (("rrntn.models.dropout_mask",),),
    "linalg.clip_s": (_CLIP,),
    "linalg.clip_share": (_CLIP, "hook:clip"),
    "evaluation.forward_s": (_EVAL_FWD,),
    "evaluation.self_s": (_EVAL_FWD,),
    "corpus.chunk_s": (_CHUNK,),
    "corpus.windows": (_CHUNK, "hook:window"),
    "corpus.self_s": (_CHUNK,),
    "mapping.slices_touched_mean": (_CHUNK, "hook:window"),
    "mapping.shared_slice_share": (_CHUNK, "hook:window"),
}


def _nbytes(arrays) -> int:
    seen, total = set(), 0
    for a in arrays:
        if id(a) not in seen and hasattr(a, "nbytes"):
            seen.add(id(a))
            total += a.nbytes
    return total


def _cache_arrays(cache):
    for entry in cache.steps:
        yield from entry.values()
    yield from cache.out_masks
    yield from cache.probs


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = "setup"
        self.missing: set[str] = set()
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span, hook in TARGETS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            wrapper = (self._wrap_iter if hook == "window" else self._wrap)(fn, span, hook)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _record(self, hook, args, out) -> None:
        try:
            if hook == "cache":
                self.samples["cache_bytes"].append(_nbytes(_cache_arrays(out[2])))
            elif hook == "grads":
                self.samples["grad_bytes"].append(_nbytes(out[0].values()))
            elif hook == "update":
                self.samples["update_bytes"].append(_nbytes(args[1].values()))
            elif hook == "clip":
                self.samples["clip_factor"].append(float(out[1]))
            elif hook == "window":
                self.samples["window_inputs"].append(out.inputs)
        except (AttributeError, TypeError, IndexError, KeyError):
            self.missing.add(f"hook:{hook}")

    def _wrap(self, fn, span, hook):
        def wrapped(*args, **kwargs):
            idx = self.begin(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                self._record(hook, args, out)
            return out
        return wrapped

    def _wrap_iter(self, fn, span, hook):
        def wrapped(*args, **kwargs):
            it = iter(fn(*args, **kwargs))

            def gen():
                while True:
                    idx = self.begin(span)
                    try:
                        chunk = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.end(idx)
                    self._record(hook, args, chunk)
                    yield chunk
            return gen()
        return wrapped

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run_id in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "run": run_id}) + "\n")


def layer_metrics(tracer: Tracer, slice_table, k: int) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    Seconds are per cycle: one traced training round plus one traced eval
    pass. Setup metrics are medians over the setup repetitions, cli metrics
    describe one checkpoint round trip.
    """
    spans = tracer.spans
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    phase = [run.split("-")[0] for *_, run in spans]
    n_runs = {p: len({run for *_, run in spans if run.startswith(p + "-")}) or 1
              for p in ("train", "eval")}

    def durations(name, ph=None, parent=None):
        return [(s[2] - s[1]) / 1e9 for i, s in enumerate(spans)
                if s[0] == name and (ph is None or phase[i] == ph)
                and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent))]

    def per_cycle(name, parent=None):
        return sum(sum(durations(name, ph, parent)) / n_runs[ph] for ph in ("train", "eval"))

    def self_per_cycle(prefix):
        return sum((s[2] - s[1] - child[i]) / 1e9 / n_runs[phase[i]]
                   for i, s in enumerate(spans)
                   if s[0].startswith(prefix) and phase[i] in n_runs)

    def p50_ms(name):
        d = durations(name, "train")
        return statistics.median(d) * 1e3 if d else 0.0

    def mean(key, scale=1e-6):
        v = tracer.samples[key]
        return statistics.fmean(v) * scale if v else 0.0

    def med(name):
        d = durations(name)
        return statistics.median(d) if d else 0.0

    epoch = per_cycle("training.epoch")
    blocking = sum(per_cycle(n, "training.epoch") for n in
                   ("corpus.chunk", "models.forward", "models.backward", "linalg.clip",
                    "training.sgd"))
    windows = tracer.samples["window_inputs"]
    touched = [len(set(slice_table[w].ravel().tolist())) for w in windows]
    tokens = sum(w.size for w in windows)
    shared = sum(int((slice_table[w] == k - 1).sum()) for w in windows)
    clips = tracer.samples["clip_factor"]
    out = {
        "training.epoch_s": epoch,
        "training.self_s": self_per_cycle("training.epoch"),
        "training.span_coverage": blocking / epoch if epoch else 0.0,
        "training.sgd_s": per_cycle("training.sgd"),
        "training.sgd_ms_p50": p50_ms("training.sgd"),
        "training.update_mb": mean("update_bytes"),
        "models.forward_s": per_cycle("models.forward", "training.epoch"),
        "models.forward_ms_p50": p50_ms("models.forward"),
        "models.cache_mb_peak": max(tracer.samples["cache_bytes"], default=0) / 1e6,
        "models.backward_s": per_cycle("models.backward"),
        "models.backward_ms_p50": p50_ms("models.backward"),
        "models.grad_mb": mean("grad_bytes"),
        "models.self_s": self_per_cycle("models."),
        "models.init_s": med("models.init"),
        "linalg.softmax_s": per_cycle("linalg.softmax"),
        "linalg.dropout_s": per_cycle("linalg.dropout"),
        "linalg.clip_s": per_cycle("linalg.clip"),
        "linalg.clip_share": sum(f < 1.0 for f in clips) / len(clips) if clips else 0.0,
        "linalg.self_s": self_per_cycle("linalg."),
        "evaluation.perplexity_s": per_cycle("evaluation.perplexity"),
        "evaluation.forward_s": per_cycle("models.forward", "evaluation.perplexity"),
        "evaluation.self_s": self_per_cycle("evaluation."),
        "corpus.vocab_s": med("corpus.vocab"),
        "corpus.chunk_s": per_cycle("corpus.chunk"),
        "corpus.windows": len(windows) / n_runs["train"],
        "corpus.self_s": self_per_cycle("corpus."),
        "mapping.table_s": med("mapping.table"),
        "mapping.slices_touched_mean": statistics.fmean(touched) if touched else 0.0,
        "mapping.shared_slice_share": shared / tokens if tokens else 0.0,
        "cli.save_s": med("cli.save"),
        "cli.load_s": med("cli.load"),
    }
    return {name: value for name, value in out.items() if not unmet_needs(tracer, name)}


def unmet_needs(tracer: Tracer, metric: str) -> list[str]:
    unmet = []
    for need in NEEDS.get(metric, ()):
        if isinstance(need, str):
            if need in tracer.missing:
                unmet.append(need)
        elif all(q in tracer.missing for q in need):
            unmet.append(" or ".join(need))
    return unmet
