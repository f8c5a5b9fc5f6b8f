"""Command-line surface tying corpus prep, training, and evaluation together.

Commands:
  prep          tokenize a raw corpus, build the vocabulary, encode the splits
  train         train a model from a flat key=value config file
  eval          perplexity of a checkpoint on an encoded split
  count-params  exact parameter count, rounded label, and closed form
  gradcheck     finite-difference check of the analytic gradients
  sweep         train one model per (policy, K) and emit a CSV

Exit codes: 0 success, 1 usage or config error, 2 numerical divergence,
3 I/O error or corrupt checkpoint.

Config files are flat `key = value` lines; `#` starts a comment. Unknown
keys, missing required keys and bad values are reported together.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import sys
from dataclasses import dataclass, replace
from math import prod
from pathlib import Path

import numpy as np

from . import models
from .corpus import (
    EncodedCorpus,
    EncodedSplit,
    Vocabulary,
    build_vocab,
    encode,
    read_sentences,
    sentence_token_stream,
    split_stream_bytes,
)
from .evaluation import (
    capacity_report,
    format_capacity_table,
    perplexity,
    run_k_sweep,
    sweep_specs,
)
from .linalg import Rng
from .mapping import POLICY_NAMES
from .models import CELL_AXES, FAMILIES, DivergenceError, ModelSpec, param_shapes
from .training import REGIMES, TrainConfig, fit, grad_check, train_chunks

_CKPT_MAGIC = b"RRNTCKPT"
_CKPT_VERSION = 1
_CKPT_DTYPES = {"f64": np.dtype("<f8"), "f32": np.dtype("<f4")}
# The meta block in file order: the ModelSpec fields, each with its parser,
# then the run's own keys, kept as text. A checkpoint must carry every key.
_SPEC_META = {"family": str, "v": int, "e": int, "h": int, "k": int, "policy": str, "factor": int}
_META_KEYS = (*_SPEC_META, "epoch", "vocab_sha256", "dtype")


class UsageError(ValueError):
    pass


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Flat config files


def _choice(*allowed):
    def parse(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {raw!r}")
        return raw
    return parse


def _float_or_none(raw: str) -> float | None:
    return None if raw.lower() == "none" else float(raw)


_CONFIG_REQUIRED = ("corpus_dir", "out_dir", "family", "hidden", "regime", "seed")
# Each key sets one field: of RunConfig ("run"), of the ModelSpec, which waits
# for V from the corpus ("spec"), of TrainConfig ("train") or of its InitScheme
# ("init"). A key the file leaves out keeps the value of the regime's preset,
# TrainConfig.simple or TrainConfig.gated, or the dataclass default.
_CONFIG_KEYS = {
    "corpus_dir": ("run", "corpus_dir", str),
    "out_dir": ("run", "out_dir", str),
    "timing": ("run", "timing", _choice("off", "wall")),
    "checkpoint_dtype": ("run", "checkpoint_dtype", _choice(*_CKPT_DTYPES)),
    "family": ("spec", "family", _choice(*FAMILIES)),
    "hidden": ("spec", "h", int),
    "embed": ("spec", "e", int),
    "k": ("spec", "k", int),
    "policy": ("spec", "policy", _choice(*POLICY_NAMES)),
    "factor": ("spec", "factor", int),
    "regime": ("train", "regime", _choice(*REGIMES)),
    "seed": ("train", "seed", int),
    "t_bptt": ("train", "t_bptt", int),
    "batch": ("train", "batch", int),
    "lr0": ("train", "lr0", float),
    "halving_ratio": ("train", "halving_ratio", float),
    "patience": ("train", "patience", int),
    "p_drop": ("train", "p_drop", float),
    "clip_norm": ("train", "clip_norm", _float_or_none),
    "max_epochs": ("train", "max_epochs", int),
    "init": ("init", "kind", str),
    "init_stddev": ("init", "stddev", float),
    "init_lo": ("init", "lo", float),
    "init_hi": ("init", "hi", float),
    "init_bias": ("init", "bias", str),
}


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    if problems:
        raise ConfigError("; ".join(problems))
    return values


_MRNN_FACTOR = 100  # m-RNN factor size when none is given


def _build_spec(v: int, family: str, factor: int | None = None, **fields) -> ModelSpec:
    """The ModelSpec a config file or the spec flags describe. Fields given
    as None take ModelSpec's defaults; a factor size is kept only for a cell
    with a factor axis."""
    fields = {name: value for name, value in fields.items() if value is not None}
    if "f" in CELL_AXES[family]:
        fields["factor"] = _MRNN_FACTOR if factor is None else factor
    try:
        return ModelSpec(family=family, v=v, **fields)
    except ValueError as err:
        raise ConfigError(str(err)) from err


@dataclass
class RunConfig:
    """A validated config file: the TrainConfig it builds, the ModelSpec
    fields it gives, and the run's own keys."""

    text: str
    corpus_dir: str
    out_dir: str
    spec_fields: dict
    train: TrainConfig
    timing: str = "off"
    checkpoint_dtype: str = "f64"

    @classmethod
    def load(cls, path) -> "RunConfig":
        text = Path(path).read_text(encoding="utf-8")
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        """Parse and check every key, reporting all problems at once, then
        apply the file's train and init keys to the regime's preset."""
        values = parse_config_text(text)
        problems = [f"missing required key {key!r}" for key in _CONFIG_REQUIRED
                    if key not in values]
        fields = {"run": {}, "spec": {}, "train": {}, "init": {}}
        for key, raw in values.items():
            if key not in _CONFIG_KEYS:
                problems.append(f"unknown key {key!r}")
                continue
            part, name, parse = _CONFIG_KEYS[key]
            try:
                fields[part][name] = parse(raw)
            except ValueError as err:
                problems.append(f"key {key!r}: {err}")
        if problems:
            raise ConfigError("; ".join(sorted(problems)))
        train = fields["train"]
        try:
            preset = getattr(TrainConfig, train["regime"])(train["seed"])  # named per regime
            train = replace(preset, init=replace(preset.init, **fields["init"]), **train)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        return cls(text=text, spec_fields=fields["spec"], train=train, **fields["run"])

    def model_spec(self, v: int) -> ModelSpec:
        return _build_spec(v, **self.spec_fields)


# ---------------------------------------------------------------------------
# Prepped-corpus files


def _write_ids(path: Path, ids: np.ndarray) -> None:
    ids.astype("<u4").tofile(path)


def _read_ids(path: Path, v: int) -> np.ndarray:
    """A split's ids, checked to be whole 4-byte ids below V."""
    data = path.read_bytes()
    if len(data) % 4:
        raise ValueError(f"{path}: {len(data)} bytes is not a whole number of 4-byte ids")
    ids = np.frombuffer(data, dtype="<u4").astype(np.int64)
    if ids.size and ids.max() >= v:
        raise ValueError(f"{path}: id {ids.max()} is outside the vocabulary (V = {v})")
    return ids


def _boundaries_from_eos(ids: np.ndarray, eos_id: int) -> np.ndarray:
    ends = np.flatnonzero(ids == eos_id)
    starts = np.concatenate([[0], ends[:-1] + 1]) if ends.size else np.zeros(0, dtype=np.int64)
    return starts.astype(np.int64)


def load_corpus(corpus_dir) -> tuple[Vocabulary, EncodedCorpus]:
    corpus_dir = Path(corpus_dir)
    vocab = Vocabulary.load(corpus_dir / "vocab.tsv")
    splits = {}
    for name, label in (("train", "training"), ("valid", "validation"), ("test", "test")):
        ids = _read_ids(corpus_dir / f"{name}.ids", vocab.size)
        if ids.size < 2:  # one prediction needs two tokens
            raise ValueError(f"{label} split has no predictable tokens ({name}.ids: {ids.size})")
        boundaries = (np.zeros(0, dtype=np.int64) if vocab.eos_id is None
                      else _boundaries_from_eos(ids, vocab.eos_id))
        splits[name] = EncodedSplit(ids=ids, boundaries=boundaries)
    return vocab, EncodedCorpus(**splits)


def vocab_sha256(corpus_dir) -> str:
    return hashlib.sha256((Path(corpus_dir) / "vocab.tsv").read_bytes()).hexdigest()


def _find_split_file(input_dir: Path, name: str) -> Path:
    for candidate in (f"{name}.txt", f"ptb.{name}.txt"):
        path = input_dir / candidate
        if path.exists():
            return path
    raise FileNotFoundError(f"no {name} split found under {input_dir}")


def cmd_prep(args) -> int:
    if args.format == "ptb":
        input_dir = Path(args.input)
        sentences = {name: read_sentences(_find_split_file(input_dir, name))
                     for name in ("train", "valid", "test")}
        vocab = build_vocab(sentence_token_stream(sentences["train"]),
                            min_count=args.min_count, max_size=args.max_size)
        encoded = {name: encode(vocab, sents) for name, sents in sentences.items()}
    else:
        raw = Path(args.input).read_bytes()
        train, valid, test = split_stream_bytes(
            raw, args.train_bytes, args.valid_bytes, args.test_bytes)
        vocab = build_vocab(train, min_count=args.min_count, max_size=args.max_size)
        encoded = {"train": encode(vocab, train), "valid": encode(vocab, valid),
                   "test": encode(vocab, test)}
    out_dir = Path(args.out)  # made only once the input has been read and accepted
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab.save(out_dir / "vocab.tsv")
    for name, split in encoded.items():
        _write_ids(out_dir / f"{name}.ids", split.ids)
    print(f"V = {vocab.size}")
    for name, split in encoded.items():
        print(f"{name}: {len(split.ids)} tokens")
    return 0


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, params, spec: ModelSpec, config_text: str,
                    vocab_sha: str, epoch: int, dtype: str = "f64") -> None:
    meta = {key: getattr(spec, key) for key in _SPEC_META}
    meta.update(epoch=epoch, vocab_sha256=vocab_sha, dtype=dtype)
    meta_text = "".join(f"{key} = {meta[key]}\n" for key in _META_KEYS)
    # written beside path and moved onto it whole: a save that fails leaves
    # an earlier checkpoint there as it was
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC)
            f.write(struct.pack("<I", _CKPT_VERSION))
            for block in (config_text, meta_text):
                data = block.encode("utf-8")
                f.write(struct.pack("<I", len(data)))
                f.write(data)
            for name in param_shapes(spec):
                params[name].astype(_CKPT_DTYPES[dtype], copy=False).tofile(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class Checkpoint:
    params: dict
    spec: ModelSpec
    config_text: str
    meta: dict[str, str]


class CheckpointError(ValueError):
    """A checkpoint file that is foreign, cut short or followed by extra bytes."""


def _read_exact(f, n: int, path, block: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"{path}: truncated {block} ({len(data)} of {n} bytes)")
    return data


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        if f.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(f, 4, path, "header"))
        if version != _CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        blocks = []
        for block in ("config block", "meta block"):
            (length,) = struct.unpack("<I", _read_exact(f, 4, path, f"{block} header"))
            blocks.append(_read_exact(f, length, path, block))
        try:
            config_text, meta_text = (b.decode("utf-8") for b in blocks)
            meta = parse_config_text(meta_text)
            if missing := [key for key in _META_KEYS if key not in meta]:
                raise ValueError(f"missing key {', '.join(missing)}")
            spec = ModelSpec(**{key: parse(meta[key]) for key, parse in _SPEC_META.items()})
            np_dtype = _CKPT_DTYPES[meta["dtype"]]
        except (KeyError, ValueError) as err:
            raise CheckpointError(f"{path}: unreadable config or meta block ({err})") from err
        params = {}
        for name, shape in param_shapes(spec).items():
            start, n = f.tell(), prod(shape)
            block = np.fromfile(f, np_dtype, count=n)
            if block.size != n:
                raise CheckpointError(f"{path}: truncated parameter block {name} "
                                      f"({f.tell() - start} of {n * np_dtype.itemsize} bytes)")
            params[name] = block.astype(np.float64, copy=False).reshape(shape)
        if extra := os.fstat(f.fileno()).st_size - f.tell():
            raise CheckpointError(f"{path}: {extra} trailing bytes after parameter block {name}")
    return Checkpoint(params=params, spec=spec, config_text=config_text, meta=meta)


# ---------------------------------------------------------------------------
# Commands


def _metrics_csv(history, timing: str) -> str:
    lines = ["epoch,lr,train_ppl,valid_ppl,seconds"]
    for m in history:
        seconds = f"{m.seconds:.3f}" if timing == "wall" else "0.000"
        lines.append(f"{m.epoch},{m.lr:.10g},{m.train_ppl:.6f},{m.valid_ppl:.6f},{seconds}")
    return "\n".join(lines) + "\n"


def _conventions(vocab: Vocabulary) -> str:
    eos = ("end-of-sentence token appended per line, ranked and scored"
           if vocab.eos_id is not None else "stream corpus, no sentence tokens")
    return (f"conventions: {eos}; input w_t predicts w_{{t+1}}; "
            f"gaussian init parameter read as stddev")


def _threads() -> str:
    blas = models._blas_threads()
    return (f"threads: BLAS {'unknown' if blas is None else blas}, "
            f"helper thread {'off' if models._helper is None else 'on'}")


def _load_run(config_path):
    """The run's config, vocabulary, corpus, spec and vocab.tsv hash, once the
    training split fills the first training window. Callers make out_dir
    after their checks."""
    cfg = RunConfig.load(config_path)
    vocab_sha = vocab_sha256(cfg.corpus_dir)  # the vocabulary the run reads, not a later one
    vocab, corpus = load_corpus(cfg.corpus_dir)
    spec = cfg.model_spec(vocab.size)
    next(train_chunks(corpus.train, cfg.train), None)  # a split too small raises here
    return cfg, vocab, corpus, spec, vocab_sha


def cmd_train(args) -> int:
    cfg, vocab, corpus, spec, vocab_sha = _load_run(args.config)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def log(metrics):
        print(f"epoch {metrics.epoch}: lr {metrics.lr:.6g} "
              f"train_ppl {metrics.train_ppl:.3f} valid_ppl {metrics.valid_ppl:.3f} "
              f"({metrics.seconds:.1f}s)")

    result = fit(spec, cfg.train, corpus, log=log)
    (out_dir / "metrics.csv").write_text(
        _metrics_csv(result.history, cfg.timing), encoding="utf-8")
    save_checkpoint(out_dir / "checkpoint.bin", result.params, spec, cfg.text,
                    vocab_sha, result.best_epoch, dtype=cfg.checkpoint_dtype)
    test_ppl = perplexity(result.params, spec, corpus.test, t_bptt=cfg.train.t_bptt)
    print(_conventions(vocab))
    print(_threads())
    print(f"test PPL = {test_ppl:.6f}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    cfg = RunConfig.from_text(ckpt.config_text)
    corpus_dir = args.corpus_dir or cfg.corpus_dir
    if vocab_sha256(corpus_dir) != ckpt.meta["vocab_sha256"]:
        raise ValueError(f"vocabulary hash mismatch: checkpoint was trained against a "
                         f"different vocab.tsv than {corpus_dir}")
    vocab, corpus = load_corpus(corpus_dir)
    split = getattr(corpus, args.split)
    ppl = perplexity(ckpt.params, ckpt.spec, split, t_bptt=cfg.train.t_bptt)
    print(_conventions(vocab))
    print(_threads())
    print(f"{args.split} PPL = {ppl:.6f}")
    return 0


def _flag_spec(args) -> ModelSpec:
    return _build_spec(args.v, args.family, args.factor, h=args.hidden, e=args.embed,
                       k=args.k, policy=args.policy)


def cmd_count_params(args) -> int:
    spec = _flag_spec(args)
    row = capacity_report([spec])[0]
    print(format_capacity_table([row]))
    return 0


def cmd_gradcheck(args) -> int:
    spec = _flag_spec(args)
    report = grad_check(spec, Rng(args.seed), t_steps=args.t_steps)
    print(report.format())
    return 0 if report.passed else 2


def cmd_sweep(args) -> int:
    cfg, _, corpus, spec, _ = _load_run(args.config)
    k_values, policies = args.k.split(","), tuple(args.policies.split(","))
    sweep_specs(spec, k_values, policies)  # a bad K list or policy raises before out_dir is made
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def log(row):
        shown = row.error or f"{row.test_ppl:.3f}"
        print(f"policy {row.policy} K {row.k}: test PPL {shown}")

    result = run_k_sweep(spec, k_values, cfg.train, corpus, policies=policies, log=log)
    csv_path = out_dir / "sweep.csv"
    csv_path.write_text(result.to_csv(), encoding="utf-8")
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--v", type=int, required=True, help="vocabulary size")
    p.add_argument("--hidden", type=int, required=True)
    p.add_argument("--embed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--policy", choices=POLICY_NAMES)
    p.add_argument("--factor", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rrntn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="build vocabulary and encoded splits")
    p.add_argument("--format", required=True, choices=("ptb", "text8"))
    p.add_argument("--input", required=True,
                   help="directory of split files (ptb) or a single stream file (text8)")
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.add_argument("--max-size", type=int, default=None, dest="max_size")
    p.add_argument("--train-bytes", type=int, default=90_000_000, dest="train_bytes")
    p.add_argument("--valid-bytes", type=int, default=5_000_000, dest="valid_bytes")
    p.add_argument("--test-bytes", type=int, default=5_000_000, dest="test_bytes")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="perplexity of a checkpoint on a split")
    p.add_argument("checkpoint")
    p.add_argument("--split", default="test", choices=("train", "valid", "test"))
    p.add_argument("--corpus-dir", default=None, dest="corpus_dir")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count-params", help="parameter count, label, and closed form")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_spec_flags(p)
    p.add_argument("--t-steps", type=int, default=5, dest="t_steps")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="train across K values and emit a CSV")
    p.add_argument("config")
    p.add_argument("--k", required=True, help="comma-separated K values")
    p.add_argument("--policies", default="f,fmod")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CheckpointError as err:
        print(f"corrupt checkpoint: {err}", file=sys.stderr)
        return 3
    except (UsageError, ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DivergenceError as err:
        print(f"numerical divergence{err.location()}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
