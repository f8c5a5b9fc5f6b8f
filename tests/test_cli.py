import re
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from synth import order2_sentences
from rrntn import cli
from rrntn.corpus import UNK_TOKEN
from rrntn.linalg import Rng
from rrntn.models import InitScheme, ModelSpec, init_params, param_shapes
from rrntn.training import TrainConfig, fit


@pytest.fixture(scope="module")
def ptb_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("rawptb")
    sentences = order2_sentences(v=25, n_tokens=2600, seed=21, rich=5, sentence_mean=8)
    n = len(sentences)
    splits = {"train": sentences[: int(n * 0.8)],
              "valid": sentences[int(n * 0.8): int(n * 0.9)],
              "test": sentences[int(n * 0.9):]}
    for name, sents in splits.items():
        (root / f"{name}.txt").write_text(
            "\n".join(" ".join(s) for s in sents) + "\n", encoding="utf-8")
    return root, splits


@pytest.fixture(scope="module")
def prepped(ptb_dir, tmp_path_factory):
    root, _ = ptb_dir
    out = tmp_path_factory.mktemp("prepped")
    rc = cli.main(["prep", "--format", "ptb", "--input", str(root), "--out", str(out)])
    assert rc == 0
    return out


def _copy_corpus(prepped, dest):
    dest.mkdir()
    for p in prepped.iterdir():
        (dest / p.name).write_bytes(p.read_bytes())
    return dest


def _train_config(prepped, out_dir, **overrides):
    values = {
        "corpus_dir": str(prepped), "out_dir": str(out_dir), "family": "rrntn",
        "hidden": "6", "k": "3", "regime": "simple", "seed": "11",
        "max_epochs": "2", "init_stddev": "0.02", "p_drop": "0.5",
    }
    values.update({k: str(v) for k, v in overrides.items()})
    return "\n".join(f"{k} = {v}" for k, v in values.items()) + "\n"


# ---------------------------------------------------------------------------
# prep


def test_prep_prints_v_and_writes_splits(ptb_dir, prepped, capsys):
    root, splits = ptb_dir
    rc = cli.main(["prep", "--format", "ptb", "--input", str(root),
                   "--out", str(prepped)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("V = ")
    for name in ("train", "valid", "test"):
        assert (prepped / f"{name}.ids").exists()
    # token count = words + one eos per line
    n_words = sum(len(s) for s in splits["train"])
    ids = np.frombuffer((prepped / "train.ids").read_bytes(), dtype="<u4")
    assert len(ids) == n_words + len(splits["train"])


def test_prep_reruns_byte_identical(ptb_dir, tmp_path, capsys):
    root, _ = ptb_dir
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["prep", "--format", "ptb", "--input", str(root),
                         "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_prep_text8_mode(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    words = order2_sentences(v=20, n_tokens=1200, seed=2, sentence_mean=10**9)[0]
    stream.write_text(" ".join(words), encoding="utf-8")
    out = tmp_path / "prep"
    rc = cli.main(["prep", "--format", "text8", "--input", str(stream), "--out", str(out),
                   "--min-count", "2", "--train-bytes", "4000",
                   "--valid-bytes", "600", "--test-bytes", "600"])
    assert rc == 0
    assert "V = " in capsys.readouterr().out
    vocab, corpus = cli.load_corpus(out)
    assert vocab.eos_id is None
    assert not corpus.train.has_sentences
    assert UNK_TOKEN in vocab.words


def test_prep_negative_max_size_exits_1(ptb_dir, tmp_path, capsys):
    # a negative bound would slice the rarest words off the vocabulary
    root, _ = ptb_dir
    out = tmp_path / "prep"
    rc = cli.main(["prep", "--format", "ptb", "--input", str(root), "--out", str(out),
                   "--max-size", "-1"])
    assert rc == 1
    assert re.fullmatch(r"error: .*max_size.*\n", capsys.readouterr().err)
    assert not (out / "vocab.tsv").exists()


def test_prep_missing_input_is_io_error(tmp_path, capsys):
    rc = cli.main(["prep", "--format", "text8", "--input", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o")])
    assert rc == 3


def _prep_text8(tmp_path, name, size):
    """rrntn prep on a large enough stream with one byte count set to size."""
    stream = tmp_path / "stream.txt"
    words = order2_sentences(v=20, n_tokens=1200, seed=2, sentence_mean=10**9)[0]
    stream.write_text(" ".join(words), encoding="utf-8")
    out = tmp_path / "prep"
    sizes = {"train": "4000", "valid": "600", "test": "600", name: size}
    rc = cli.main(["prep", "--format", "text8", "--input", str(stream), "--out", str(out),
                   *(arg for key, size in sizes.items() for arg in (f"--{key}-bytes", size))])
    return rc, out


@pytest.mark.parametrize("name", ["train", "valid", "test"])
def test_prep_rejects_negative_byte_count(tmp_path, capsys, name):
    # a negative size would cut the stream at an offset counted from its end
    rc, out = _prep_text8(tmp_path, name, "-2000")
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {name} bytes must be at least 1; got -2000"]
    assert not out.exists()


@pytest.mark.parametrize("name", ["train", "valid", "test"])
def test_prep_rejects_zero_byte_count(tmp_path, capsys, name):
    # a zero train size would still give a one-token split, and a zero valid
    # or test size would read as a stream too small
    rc, out = _prep_text8(tmp_path, name, "0")
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {name} bytes must be at least 1; got 0"]
    assert not out.exists()


@pytest.mark.parametrize("flags,missing_input,code", [
    (["--max-size", "-1"], False, 1),
    (["--min-count", "0"], False, 1),
    ([], True, 3),
], ids=["max-size", "min-count", "missing-input"])
def test_rejected_prep_leaves_no_out_dir(ptb_dir, tmp_path, capsys, flags, missing_input, code):
    root = tmp_path / "nope" if missing_input else ptb_dir[0]
    out = tmp_path / "prep"
    rc = cli.main(["prep", "--format", "ptb", "--input", str(root), "--out", str(out), *flags])
    assert rc == code
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / eval


def test_train_zero_lr_zero_init_gives_ppl_v(prepped, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_train_config(prepped, tmp_path / "out", lr0="0.0",
                                     init_stddev="0.0", max_epochs="1"))
    assert cli.main(["train", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    vocab, _ = cli.load_corpus(prepped)
    assert f"test PPL = {float(vocab.size):.6f}" in out


def test_train_metrics_csv_byte_identical_across_runs(prepped, tmp_path, capsys):
    csvs = []
    for sub in ("r1", "r2"):
        out_dir = tmp_path / sub
        cfgfile = tmp_path / f"{sub}.cfg"
        cfgfile.write_text(_train_config(prepped, out_dir))
        assert cli.main(["train", str(cfgfile)]) == 0
        csvs.append((out_dir / "metrics.csv").read_bytes())
    capsys.readouterr()
    assert csvs[0] == csvs[1]
    header = csvs[0].decode().splitlines()[0]
    assert header == "epoch,lr,train_ppl,valid_ppl,seconds"


def test_eval_reproduces_train_test_ppl(prepped, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_train_config(prepped, out_dir))
    assert cli.main(["train", str(cfgfile)]) == 0
    train_out = capsys.readouterr().out
    train_ppl_line = [l for l in train_out.splitlines() if l.startswith("test PPL")][0]

    assert cli.main(["eval", str(out_dir / "checkpoint.bin"), "--split", "test"]) == 0
    eval_out = capsys.readouterr().out
    eval_ppl_line = [l for l in eval_out.splitlines() if "PPL =" in l][0]
    assert train_ppl_line.split("=")[1] == eval_ppl_line.split("=")[1]
    assert "conventions:" in eval_out
    assert cli.main(["eval", str(out_dir / "checkpoint.bin"), "--split", "test"]) == 0
    assert eval_ppl_line in capsys.readouterr().out  # repeatable


def test_eval_names_split_token_of_nonfinite_loss(prepped, tmp_path, capsys):
    # word w is read only by the third test sentence, at split index 7
    corpus = _copy_corpus(prepped, tmp_path / "corpus")
    vocab, _ = cli.load_corpus(corpus)
    a, b, w = [i for i in range(vocab.size) if i != vocab.eos_id][:3]
    eos = vocab.eos_id
    cli._write_ids(corpus / "test.ids", np.array([a, b, eos, b, a, eos, a, w, b, eos, a, eos]))
    text = _train_config(corpus, tmp_path / "out")
    spec = cli.RunConfig.from_text(text).model_spec(vocab.size)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(2))
    params["w_emb"][:, w] = np.nan
    path = tmp_path / "nan.bin"
    cli.save_checkpoint(path, params, spec, text, cli.vocab_sha256(corpus), epoch=1)
    assert cli.main(["eval", str(path), "--split", "test"]) == 2
    assert f"at timestep 7, word {w}: non-finite loss" in capsys.readouterr().err


def test_eval_rejects_vocab_hash_mismatch(prepped, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_train_config(prepped, out_dir, max_epochs="1"))
    assert cli.main(["train", str(cfgfile)]) == 0
    # clone the corpus with a perturbed vocabulary file
    other = _copy_corpus(prepped, tmp_path / "othercorpus")
    vocab_lines = (other / "vocab.tsv").read_text().splitlines()
    vocab_lines[0] = vocab_lines[0].split("\t")[0] + "\t999999"
    (other / "vocab.tsv").write_text("\n".join(vocab_lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["eval", str(out_dir / "checkpoint.bin"), "--corpus-dir", str(other)])
    assert rc == 1
    assert "hash mismatch" in capsys.readouterr().err


def test_overfit_toy_train_ppl_below_test(prepped, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_train_config(prepped, out_dir, max_epochs="6", p_drop="0.0",
                                     hidden="12", k="1", lr0="0.2"))
    assert cli.main(["train", str(cfgfile)]) == 0
    final = [l for l in capsys.readouterr().out.splitlines() if l.startswith("test PPL")][0]
    vocab, _ = cli.load_corpus(prepped)
    assert float(final.split("=")[1]) < vocab.size  # beats the uniform baseline
    assert cli.main(["eval", str(out_dir / "checkpoint.bin"), "--split", "train"]) == 0
    train_ppl = float(capsys.readouterr().out.splitlines()[-1].split("=")[1])
    assert cli.main(["eval", str(out_dir / "checkpoint.bin"), "--split", "test"]) == 0
    test_ppl = float(capsys.readouterr().out.splitlines()[-1].split("=")[1])
    assert train_ppl < test_ppl


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path):
    spec = ModelSpec("lstm", v=15, h=5, e=4, k=2)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(3))
    path = tmp_path / "ck.bin"
    cli.save_checkpoint(path, params, spec, "seed = 1\n", "ab" * 32, epoch=4)
    loaded = cli.load_checkpoint(path)
    assert loaded.spec == spec
    assert loaded.meta["epoch"] == "4"
    assert loaded.config_text == "seed = 1\n"
    assert all(np.array_equal(loaded.params[k], params[k]) for k in params)
    assert list(loaded.params) == list(param_shapes(spec))


def test_checkpoint_f32_storage_loses_only_precision(tmp_path):
    spec = ModelSpec("rrntn", v=9, h=3, k=2)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(4))
    path = tmp_path / "ck32.bin"
    cli.save_checkpoint(path, params, spec, "", "00" * 32, epoch=1, dtype="f32")
    loaded = cli.load_checkpoint(path)
    for k in params:
        np.testing.assert_allclose(loaded.params[k], params[k], rtol=1e-6, atol=1e-7)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        cli.load_checkpoint(path)


@pytest.mark.parametrize("dtype,code", [("f64", "d"), ("f32", "f")])
def test_checkpoint_file_layout(tmp_path, dtype, code):
    spec = ModelSpec("rrntn", v=5, h=2, k=2)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(6))
    path = tmp_path / "ck.bin"
    cli.save_checkpoint(path, params, spec, "seed = 1\n", "ab" * 32, epoch=7, dtype=dtype)
    meta = ("family = rrntn\nv = 5\ne = 2\nh = 2\nk = 2\npolicy = f\nfactor = 0\n"
            f"epoch = 7\nvocab_sha256 = {'ab' * 32}\ndtype = {dtype}\n")
    expect = b"RRNTCKPT" + struct.pack("<I", 1)
    for block in (b"seed = 1\n", meta.encode("utf-8")):
        expect += struct.pack("<I", len(block)) + block
    for name in ("w_emb", "u_slices", "b_slices", "w_out", "b_out"):
        values = params[name].ravel()
        expect += struct.pack(f"<{values.size}{code}", *values)
    assert path.read_bytes() == expect


def test_checkpoint_save_and_load_copy_no_block(tmp_path):
    spec = ModelSpec("rrntn", v=10_000, h=100, k=100)  # w_emb, u_slices, w_out: 8 MB each
    params = {name: np.full(shape, 0.25) for name, shape in param_shapes(spec).items()}
    param_bytes = sum(p.nbytes for p in params.values())
    path = tmp_path / "big.bin"
    tracemalloc.start()
    try:
        cli.save_checkpoint(path, params, spec, "", "00" * 32, epoch=1)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = cli.load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(loaded.params[k], params[k]) for k in params)
    assert save_peak < 1e6
    assert load_peak <= param_bytes + 1e6


def _damaged_checkpoint(tmp_path, damage):
    spec = ModelSpec("rrntn", v=9, h=3, k=2)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(4))
    path = tmp_path / "ck.bin"
    cli.save_checkpoint(path, params, spec, "seed = 1\n", "00" * 32, epoch=1)
    path.write_bytes(damage(path.read_bytes()))
    return path


@pytest.mark.parametrize("damage,block", [
    (lambda data: data[:10], "truncated header"),
    (lambda data: data[:-3], "truncated parameter block b_out"),
    (lambda data: data + b"\0" * 5, "5 trailing bytes after parameter block b_out"),
    (lambda data: data.replace(b"family = rrntn", b"family = rrxtn"),
     "unreadable config or meta block"),
    (lambda data: data.replace(b"vocab_sha256 = ", b"vocab_sha999 = "),
     "unreadable config or meta block"),
], ids=["header", "payload", "trailing", "meta", "meta-key"])
def test_eval_rejects_damaged_checkpoint(tmp_path, capsys, damage, block):
    path = _damaged_checkpoint(tmp_path, damage)
    assert cli.main(["eval", str(path), "--split", "test"]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and block in err


# ---------------------------------------------------------------------------
# count-params and gradcheck


@pytest.mark.parametrize("argv,expect", [
    (["--family", "rrntn", "--v", "10000", "--hidden", "100", "--k", "1"], "2M"),
    (["--family", "rrntn", "--v", "10000", "--hidden", "100", "--k", "100"], "3M"),
    (["--family", "gru", "--v", "10000", "--hidden", "244", "--embed", "650",
      "--k", "100"], "15.5M"),
    (["--family", "mrnn", "--v", "10000", "--hidden", "100"], "F=100 "),
])
def test_count_params_labels(argv, expect, capsys):
    assert cli.main(["count-params", *argv]) == 0
    out = capsys.readouterr().out
    assert expect in out
    assert "V=" in out  # formula echoed


@pytest.mark.parametrize("argv,line", [
    (["--family", "rrntn", "--v", "10000", "--hidden", "100", "--k", "100"],
     "rrntn V=10000 H=100 K=100                   3,020,000       3M  "
     "2*V*H + K*H^2 + K*H + V  (V=10000, H=100, K=100)"),
    (["--family", "mrnn", "--v", "10000", "--hidden", "100"],
     "mrnn V=10000 H=100 K=1 F=100                3,030,100       3M  "
     "2*V*H + F*V + 2*H*F + H + V  (V=10000, H=100, F=100)"),
    (["--family", "gru", "--v", "10000", "--hidden", "244", "--embed", "650", "--k", "100"],
     "gru V=10000 H=244 K=100 E=650              15,523,360    15.5M  "
     "E*V + 3*H*E + 2*(H^2 + H) + K*(H^2 + H) + V*H + V  (V=10000, E=650, H=244, K=100)"),
    # E is printed for a cell with input weights even when it equals H
    (["--family", "lstm", "--v", "10000", "--hidden", "254", "--embed", "254", "--k", "100"],
     "lstm V=10000 H=254 K=100 E=254             12,019,374      12M  "
     "E*V + 4*H*E + 3*(H^2 + H) + K*(H^2 + H) + V*H + V  (V=10000, E=254, H=254, K=100)"),
], ids=["rrntn", "mrnn", "gru", "lstm"])
def test_count_params_prints_exact_line(argv, line, capsys):
    assert cli.main(["count-params", *argv]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_count_params_rejects_bad_combo(capsys):
    rc = cli.main(["count-params", "--family", "rrntn", "--v", "10",
                   "--hidden", "4", "--k", "50"])
    assert rc == 1


def test_gradcheck_command_passes(capsys):
    rc = cli.main(["gradcheck", "--family", "rrntn", "--v", "16", "--hidden", "6",
                   "--k", "4", "--t-steps", "4"])
    assert rc == 0
    assert "pass" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_and_endpoint_equivalence(prepped, tmp_path, capsys):
    out_dir = tmp_path / "sweepout"
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(_train_config(prepped, out_dir, max_epochs="1", p_drop="0.0"))
    vocab, corpus = cli.load_corpus(prepped)
    assert cli.main(["sweep", str(cfgfile), "--k", f"1,{vocab.size}"]) == 0
    capsys.readouterr()
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "policy,K,H,params,test_ppl,valid_ppl,seed"
    assert len(lines) == 1 + 2 * 2  # two K values x two policies

    # dedicated runs with the same seed must match the sweep endpoints
    run_cfg = cli.RunConfig.from_text(cfgfile.read_text())
    train_cfg = run_cfg.train
    from rrntn.evaluation import perplexity
    srnn = fit(ModelSpec("rrntn", v=vocab.size, h=6, k=1), train_cfg, corpus)
    srnn_ppl = perplexity(srnn.params, ModelSpec("rrntn", v=vocab.size, h=6, k=1),
                          corpus.test, t_bptt=train_cfg.t_bptt)
    rntn_spec = ModelSpec("rrntn", v=vocab.size, h=6, k=vocab.size, policy="identity")
    rntn = fit(rntn_spec, train_cfg, corpus)
    rntn_ppl = perplexity(rntn.params, rntn_spec, corpus.test, t_bptt=train_cfg.t_bptt)

    f_rows = [l.split(",") for l in lines[1:] if l.startswith("f,")]
    assert f_rows[0][4] == f"{srnn_ppl:.6f}"
    assert f_rows[1][4] == f"{rntn_ppl:.6f}"


# ---------------------------------------------------------------------------
# config validation and exit codes


def test_config_unknown_and_missing_keys_reported_together(tmp_path):
    text = "corpus_dir = x\nbogus_key = 1\nanother = 2\n"
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_text(text)
    msg = str(err.value)
    assert "bogus_key" in msg and "another" in msg
    assert "family" in msg and "seed" in msg  # missing required keys listed


def _required_config(regime, **extra):
    values = {"corpus_dir": "c", "out_dir": "o", "family": "rrntn", "hidden": "6",
              "regime": regime, "seed": "3", **extra}
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def test_config_with_required_keys_builds_the_preset():
    for regime, preset in (("simple", TrainConfig.simple), ("gated", TrainConfig.gated)):
        cfg = cli.RunConfig.from_text(_required_config(regime))
        assert cfg.train == preset(3)
        assert cfg.model_spec(30) == ModelSpec("rrntn", v=30, h=6)
        assert (cfg.timing, cfg.checkpoint_dtype) == ("off", "f64")


_OPTIONAL_TRAIN_KEYS = [  # key, raw value, TrainConfig field ("init." for InitScheme), value
    ("t_bptt", "7", "t_bptt", 7),
    ("lr0", "0.25", "lr0", 0.25),
    ("halving_ratio", "1.01", "halving_ratio", 1.01),
    ("patience", "2", "patience", 2),
    ("p_drop", "0.25", "p_drop", 0.25),
    ("clip_norm", "2.5", "clip_norm", 2.5),
    ("max_epochs", "3", "max_epochs", 3),
    ("init_stddev", "0.02", "init.stddev", 0.02),
    ("init_lo", "-0.1", "init.lo", -0.1),
    ("init_hi", "0.1", "init.hi", 0.1),
    ("init_bias", "zero", "init.bias", "zero"),
]


@pytest.mark.parametrize("regime,key,raw,field,value", [
    *[("simple", *case) for case in _OPTIONAL_TRAIN_KEYS],
    *[("gated", *case) for case in _OPTIONAL_TRAIN_KEYS],
    ("simple", "init", "uniform", "init.kind", "uniform"),
    ("gated", "init", "gaussian", "init.kind", "gaussian"),
    ("gated", "batch", "4", "batch", 4),
    ("gated", "clip_norm", "none", "clip_norm", None),
])
def test_config_key_replaces_one_preset_field(regime, key, raw, field, value):
    preset = TrainConfig.simple(3) if regime == "simple" else TrainConfig.gated(3)
    if field.startswith("init."):
        expect = replace(preset, init=replace(preset.init, **{field[5:]: value}))
    else:
        expect = replace(preset, **{field: value})
    assert expect != preset
    assert cli.RunConfig.from_text(_required_config(regime, **{key: raw})).train == expect


def test_config_factor_applies_to_mrnn_only():
    mrnn = cli.RunConfig.from_text(_required_config("simple", family="mrnn"))
    assert mrnn.model_spec(30).factor == 100
    rrntn = cli.RunConfig.from_text(_required_config("simple", factor="7"))
    assert rrntn.model_spec(30).factor == 0


def test_readme_config_section_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
    # a key counts as documented as an ini line or in backticks, alone or as `key = ...`
    missing = [key for key in cli._CONFIG_KEYS
               if not re.search(rf"^{key} *=|`{key}( = [^`]*)?`", section, re.M)]
    assert missing == []


def test_config_duplicate_key_rejected():
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("a = 1\na = 2\n")


def test_config_comments_and_blank_lines():
    values = cli.parse_config_text("# comment\n\nlr0 = 0.5  # trailing\n")
    assert values == {"lr0": "0.5"}


def test_usage_error_exit_code(capsys):
    assert cli.main(["train"]) == 1
    assert cli.main(["no-such-command"]) == 1


def test_bad_config_exit_code(prepped, tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("family = rrntn\n")
    assert cli.main(["train", str(cfgfile)]) == 1
    assert "missing required key" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,expect", [
    ({"checkpoint_dtype": "f16"}, ["checkpoint_dtype"]),
    ({"timing": "Wall"}, ["timing"]),
    ({"batch": "20"}, ["batch"]),
    ({"lr0": "abc", "bogus": "1"}, ["lr0", "bogus"]),
    ({"p_drop": "-0.2"}, ["p_drop"]),
    ({"p_drop": "1.5"}, ["p_drop"]),
    ({"clip_norm": "-1"}, ["clip_norm"]),
    ({"init_stddev": "-0.1"}, ["stddev"]),
    ({"init_lo": "0.1", "init_hi": "-0.1"}, ["lo=0.1", "hi=-0.1"]),
])
def test_bad_value_fails_before_training(prepped, tmp_path, capsys, overrides, expect):
    out_dir = tmp_path / "out"
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(_train_config(prepped, out_dir, **overrides))
    assert cli.main(["train", str(cfgfile)]) == 1
    captured = capsys.readouterr()
    assert "epoch" not in captured.out
    assert all(key in captured.err for key in expect)
    assert not (out_dir / "metrics.csv").exists()
    assert not (out_dir / "checkpoint.bin").exists()


@pytest.mark.parametrize("overrides,expect", [
    ({"family": "lstm", "embed": "0"}, "E must be at least 1; got 0"),
    ({"family": "lstm", "embed": "-2"}, "E must be at least 1; got -2"),
    ({"max_epochs": "0"}, "max_epochs must be at least 1; got 0"),
], ids=["lstm-embed-0", "lstm-embed-negative", "max-epochs-0"])
def test_out_of_range_embed_or_epochs_exits_1(prepped, tmp_path, capsys, overrides, expect):
    out_dir = tmp_path / "out"
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(_train_config(prepped, out_dir, **overrides))
    assert cli.main(["train", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and expect in err
    assert not out_dir.exists()


@pytest.mark.parametrize("key,typo", [("family", "lsmt"), ("policy", "fmd")])
def test_family_and_policy_checked_when_config_loads(tmp_path, capsys, key, typo):
    cfgfile = tmp_path / "typo.cfg"
    cfgfile.write_text(_train_config(tmp_path / "no-corpus", tmp_path / "out", **{key: typo}))
    assert cli.main(["train", str(cfgfile)]) == 1
    assert f"key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("damage,expect", [
    (lambda data: struct.pack("<I", 999) + data[4:], "id 999 is outside the vocabulary"),
    (lambda data: data[:-1], "not a whole number of 4-byte ids"),
], ids=["id-out-of-range", "odd-length"])
def test_train_rejects_bad_corpus_ids(prepped, tmp_path, capsys, damage, expect):
    corpus = _copy_corpus(prepped, tmp_path / "corpus")
    ids_path = corpus / "train.ids"
    ids_path.write_bytes(damage(ids_path.read_bytes()))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_train_config(corpus, tmp_path / "out"))
    assert cli.main(["train", str(cfgfile)]) == 1
    captured = capsys.readouterr()
    assert "epoch" not in captured.out
    assert str(ids_path) in captured.err and expect in captured.err


def test_train_rejects_split_with_nothing_to_predict(prepped, tmp_path, capsys):
    corpus = _copy_corpus(prepped, tmp_path / "corpus")
    vocab, _ = cli.load_corpus(corpus)
    (corpus / "train.ids").write_bytes(struct.pack("<I", vocab.eos_id))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_train_config(corpus, tmp_path / "out"))
    assert cli.main(["train", str(cfgfile)]) == 1
    assert "training split has no predictable tokens" in capsys.readouterr().err


def test_train_rejects_unscoreable_valid_split_before_training(tmp_path, capsys):
    # a one-token valid split would otherwise fail only after the first epoch
    rc, corpus = _prep_text8(tmp_path, "valid", "3")
    assert rc == 0
    assert (corpus / "valid.ids").stat().st_size == 4
    out_dir = tmp_path / "out"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_train_config(corpus, out_dir, p_drop=0.0))
    assert cli.main(["train", str(cfgfile)]) == 1
    captured = capsys.readouterr()
    assert "epoch" not in captured.out
    assert "validation split has no predictable tokens" in captured.err
    assert not (out_dir / "metrics.csv").exists()
    assert not out_dir.exists()


@pytest.mark.parametrize("command,extra", [("train", []), ("sweep", ["--k", "1,2"])],
                         ids=["train", "sweep"])
def test_split_too_small_for_one_window_leaves_no_out_dir(tmp_path, capsys, command, extra):
    # about 80 training tokens against the gated preset's 20 lanes of 35 steps
    rc, corpus = _prep_text8(tmp_path, "train", "300")
    assert rc == 0
    out_dir = tmp_path / "out"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_train_config(corpus, out_dir, family="lstm", regime="gated"))
    capsys.readouterr()
    assert cli.main([command, str(cfgfile), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stream of ") and "cannot fill batch=20 windows of 35" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("line,expect", [
    ("plain", "expected 'word<TAB>count'"),
    ("word\tmany", "expected 'word<TAB>count'"),
    (None, "is a duplicate"),
], ids=["no-tab", "bad-count", "duplicate"])
def test_train_rejects_bad_vocab_line(prepped, tmp_path, capsys, line, expect):
    corpus = _copy_corpus(prepped, tmp_path / "corpus")
    vocab_path = corpus / "vocab.tsv"
    lines = vocab_path.read_text(encoding="utf-8").splitlines()
    if line is None:  # the first word again, with a count of its own
        line = lines[0].split("\t")[0] + "\t5"
    vocab_path.write_text("\n".join([*lines, line]) + "\n", encoding="utf-8")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_train_config(corpus, tmp_path / "out"))
    assert cli.main(["train", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert f"{vocab_path} line {len(lines) + 1}: " in err and expect in err


def test_write_ids_holds_one_copy(tmp_path):
    ids = np.arange(1_000_000, dtype=np.int64)
    path = tmp_path / "split.ids"
    tracemalloc.start()
    try:
        cli._write_ids(path, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == 4 * ids.size
    assert np.array_equal(cli._read_ids(path, ids.size), ids)
    assert peak < 1.5 * path.stat().st_size


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exit_code(prepped, tmp_path, capsys):
    cfgfile = tmp_path / "diverge.cfg"
    cfgfile.write_text(_train_config(prepped, tmp_path / "out", lr0="1e18",
                                     init="uniform", init_lo="-0.5", init_hi="0.5",
                                     max_epochs="2", p_drop="0.0"))
    rc = cli.main(["train", str(cfgfile)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "divergence" in err
    assert re.search(r"\(epoch \d+, window \d+\)", err)
    assert re.search(r"(, word \d+| in block \w+): ", err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_names_where_a_cell_diverged(prepped, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfgfile = tmp_path / "diverge.cfg"
    cfgfile.write_text(_train_config(prepped, out_dir, lr0="1e18",
                                     init="uniform", init_lo="-0.5", init_hi="0.5",
                                     max_epochs="2", p_drop="0.0"))
    assert cli.main(["sweep", str(cfgfile), "--k", "1,3", "--policies", "f"]) == 0
    cells = [l for l in capsys.readouterr().out.splitlines() if l.startswith("policy ")]
    assert len(cells) == 2
    for line in cells:
        assert re.search(r": test PPL diverged \(epoch \d+, window \d+\)", line), line
    rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["", ""]
