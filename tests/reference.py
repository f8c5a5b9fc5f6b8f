"""Literal single-matrix reference models used by the reduction tests.

Each function transliterates one update rule directly: a plain logistic
recurrence, a per-word tensor recurrence with one shared bias, and plain
GRU / LSTM cells. There is no slice bookkeeping anywhere; the point is that
the unified implementations, configured to K=1 (or K=V with the identity
mapping), must reproduce these bit for bit on the same parameter arrays.

The reverse loops carry the recurrence step by step. Each weight gradient is
then formed once over all T*B rows in (t, lane) order, as one D^T X product
(per word for the per-word tensor), a row sum or one embedding scatter: the
grouping the model uses, so the comparison isolates the recurrence and the
slice bookkeeping.

perplexity_per_window is the evaluation reference: one B=1 forward per
t_bptt window of each sentence, summed window by window in corpus order.

WholeArrayRng, sample_uniform and sample_gaussian are the random-number
reference: the SplitMix64 stream and its samplers written as whole-array
passes, one block-sized array per step. They share no code with
rrntn.linalg, which forms the same draws piece by piece into its output.
vocab_ranking is build_vocab's ranking written as two full sorts.

one_pass_update is the training update as a sequence of whole-block passes:
the batch mean, the clip (its norm from np.sum(a * a), then an in-place
scale), the np.sum finiteness check and the panelled step; gated_epoch runs
train_epoch's windows with it.
"""

from collections import Counter

import numpy as np

from rrntn.corpus import EncodedSplit, chunk_sentences, chunk_stream
from rrntn.models import DivergenceError, backward_chunk, forward_chunk, word_rows

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x):
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class WholeArrayRng:
    """Draw i of seed s is mix64(s + (i+1) * golden), n draws in one pass."""

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.pos = 0

    def raw64(self, n):
        idx = np.arange(self.pos + 1, self.pos + n + 1, dtype=np.uint64)
        self.pos += n
        return _mix64(np.uint64(self.seed) + idx * _GOLDEN)

    def uniform01(self, n):
        return (self.raw64(n) >> np.uint64(11)).astype(np.float64) * float(2.0**-53)


def sample_uniform(rng, lo, hi, n):
    return lo + (hi - lo) * rng.uniform01(n)


def sample_gaussian(rng, mean, stddev, n):
    """Box-Muller: the m = ceil(n/2) cos halves, then the sin halves, cut to n."""
    if n == 0:
        return np.zeros(0)
    m = (n + 1) // 2
    u1 = rng.uniform01(m)
    u2 = rng.uniform01(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = (2.0 * np.pi) * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return mean + stddev * z


def vocab_ranking(tokens, min_count=1, max_size=None):
    """(words, counts) ranked by count, ties in word order, <unk> ranked by
    its own count after the cut words are folded into it."""
    counts = Counter(tokens)
    unk_count = counts.pop("<unk>", 0)
    items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [(w, c) for w, c in items if c >= min_count]
    if max_size is not None:
        kept = kept[:max_size]
    unk_count += sum(c for w, c in items) - sum(c for w, c in kept)
    ranked = sorted(kept + [("<unk>", unk_count)], key=lambda kv: (-kv[1], kv[0]))
    return [w for w, _ in ranked], [c for _, c in ranked]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _softmax(z):
    e = z - np.max(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def _output_losses(params, hs, targets):
    """Shared literal output stage: one softmax over all T*B rows, per-step loss.

    The rows are stacked into one (T*B, H) product, the same kernel the model
    uses, so the comparison isolates the recurrence.
    """
    t_len, b = len(hs), targets.shape[0]
    hd = np.stack(hs).reshape(t_len * b, -1)
    probs = list(_softmax(hd @ params["w_out"].T + params["b_out"]).reshape(t_len, b, -1))
    loss = 0.0
    b_idx = np.arange(b)
    for t, p in enumerate(probs):
        loss += float(np.sum(-np.log(p[b_idx, targets[:, t]])))
    return probs, loss


def _output_grads(params, grads, hs, probs, targets):
    t_len, b = targets.shape[1], targets.shape[0]
    h_dim = hs[0].shape[1]
    v = params["b_out"].shape[0]
    hd = np.stack(hs)
    dlogits = np.stack(probs)
    t_idx = np.arange(t_len)[:, None]
    b_idx = np.arange(b)[None, :]
    dlogits[t_idx, b_idx, targets.T] -= 1.0
    flat = dlogits.reshape(t_len * b, v)
    grads["w_out"] += flat.T @ hd.reshape(t_len * b, h_dim)
    grads["b_out"] += flat.sum(axis=0)
    return (flat @ params["w_out"]).reshape(t_len, b, h_dim)


def _input_products(params, inputs, names):
    """Each step's embedding rows and, per input weight, x_in @ W.T for all
    steps as one (T*B, E) product before the recurrence.

    The input projection has no slices and no recurrence, so stacking it is
    the same math; it is the kernel the model uses, so the comparison isolates
    the recurrence here too.
    """
    b_n, t_len = inputs.shape
    xs = params["w_emb"][:, inputs.T.reshape(-1)].T
    proj = {name: (xs @ params[name].T).reshape(t_len, b_n, -1) for name in names}
    return xs.reshape(t_len, b_n, -1), proj


def _emb_grad(params, inputs, dx):
    """One scatter of the (T*B, E) rows dx into the embedding columns of their
    input words, in (t, lane) order."""
    g = np.zeros_like(params["w_emb"])
    np.add.at(g, (slice(None), inputs.T.reshape(-1)), dx.T)
    return g


def srnn_run(params, inputs, targets, h0):
    """Plain logistic recurrence h = sigmoid(emb + U h + b), forward + BPTT.

    params keys: w_emb (E,V), u (H,H), b (H,), w_out (V,H), b_out (V,).
    """
    b_n, t_len = inputs.shape
    h = h0
    h_prevs, hs = [], []
    for t in range(t_len):
        emb = params["w_emb"][:, inputs[:, t]].T
        rec = np.empty_like(h)
        for i in range(b_n):
            rec[i] = params["u"] @ h[i]
        h_prevs.append(h)
        h = _sigmoid(emb + rec + params["b"])
        hs.append(h)
    probs, loss = _output_losses(params, hs, targets)

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh_out = _output_grads(params, grads, hs, probs, targets)
    dh_next = np.zeros_like(h0)
    dzs = [None] * t_len
    for t in reversed(range(t_len)):
        dh = dh_out[t] + dh_next
        dz = dzs[t] = dh * hs[t] * (1.0 - hs[t])
        dh_next = np.empty_like(dh)
        for i in range(b_n):
            dh_next[i] = params["u"].T @ dz[i]
    dz = np.concatenate(dzs)
    grads["u"] = dz.T @ np.concatenate(h_prevs)
    grads["b"] = dz.sum(axis=0)
    grads["w_emb"] = _emb_grad(params, inputs, dz)
    return {"loss": loss, "hs": hs, "probs": probs, "grads": grads, "dh0": dh_next}


def rntn_run(params, inputs, targets, h0):
    """Per-word tensor recurrence h = sigmoid(emb + U[word] h + b) with one
    shared bias.

    params keys: w_emb (E,V), u_tensor (V,H,H), b (H,), w_out, b_out.
    """
    b_n, t_len = inputs.shape
    h = h0
    h_prevs, hs = [], []
    for t in range(t_len):
        ids = inputs[:, t]
        emb = params["w_emb"][:, ids].T
        rec = np.empty_like(h)
        for i in range(b_n):
            rec[i] = params["u_tensor"][ids[i]] @ h[i]
        h_prevs.append(h)
        h = _sigmoid(emb + rec + params["b"])
        hs.append(h)
    probs, loss = _output_losses(params, hs, targets)

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh_out = _output_grads(params, grads, hs, probs, targets)
    dh_next = np.zeros_like(h0)
    dzs = [None] * t_len
    for t in reversed(range(t_len)):
        ids = inputs[:, t]
        dh = dh_out[t] + dh_next
        dz = dzs[t] = dh * hs[t] * (1.0 - hs[t])
        dh_next = np.empty_like(dh)
        for i in range(b_n):
            dh_next[i] = params["u_tensor"][ids[i]].T @ dz[i]
    dz, h_prev, ids = np.concatenate(dzs), np.concatenate(h_prevs), inputs.T.reshape(-1)
    for word in np.unique(ids):
        rows = np.flatnonzero(ids == word)
        grads["u_tensor"][word] = dz[rows].T @ h_prev[rows]
    grads["b"] = dz.sum(axis=0)
    grads["w_emb"] = _emb_grad(params, inputs, dz)
    return {"loss": loss, "hs": hs, "probs": probs, "grads": grads, "dh0": dh_next}


def gru_run(params, inputs, targets, h0):
    """Plain GRU: r and z gates, candidate on r-gated state, convex update.

    params keys: w_emb, w_reset/u_reset/b_reset, w_update/u_update/b_update,
    w_cand/u_cand/b_cand, w_out, b_out.
    """
    b_n, t_len = inputs.shape
    xs, xw = _input_products(params, inputs, ("w_reset", "w_update", "w_cand"))
    h = h0
    steps = []
    for t in range(t_len):
        r = _sigmoid(xw["w_reset"][t] + h @ params["u_reset"].T + params["b_reset"])
        z = _sigmoid(xw["w_update"][t] + h @ params["u_update"].T + params["b_update"])
        rh = r * h
        rec = np.empty_like(h)
        for i in range(b_n):
            rec[i] = params["u_cand"] @ rh[i]
        hh = np.tanh(xw["w_cand"][t] + rec + params["b_cand"])
        h_new = z * h + (1.0 - z) * hh
        steps.append({"h_prev": h, "r": r, "z": z, "hh": hh, "h": h_new})
        h = h_new
    hs = [s["h"] for s in steps]
    probs, loss = _output_losses(params, hs, targets)

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh_out = _output_grads(params, grads, hs, probs, targets)
    dh_next = np.zeros_like(h0)
    dpre = [None] * t_len
    for t in reversed(range(t_len)):
        s = steps[t]
        h_prev, r, z, hh = s["h_prev"], s["r"], s["z"], s["hh"]
        dh = dh_out[t] + dh_next
        dz_gate = dh * (h_prev - hh) * z * (1.0 - z)
        dhh_pre = dh * (1.0 - z) * (1.0 - hh * hh)
        dh_prev = dh * z
        d_rh = np.empty_like(dh)
        for i in range(b_n):
            d_rh[i] = params["u_cand"].T @ dhh_pre[i]
        dr = d_rh * h_prev
        dh_prev += d_rh * r
        dr_pre = dr * r * (1.0 - r)
        dh_prev += dr_pre @ params["u_reset"] + dz_gate @ params["u_update"]
        dpre[t] = (dr_pre, dz_gate, dhh_pre)
        dh_next = dh_prev
    dr_pre, dz_gate, dhh_pre = (np.concatenate(d) for d in zip(*dpre))
    x_in = xs.reshape(t_len * b_n, -1)
    h_prev = np.concatenate([s["h_prev"] for s in steps])
    for gate, d in (("reset", dr_pre), ("update", dz_gate)):
        grads[f"w_{gate}"] = d.T @ x_in
        grads[f"u_{gate}"] = d.T @ h_prev
        grads[f"b_{gate}"] = d.sum(axis=0)
    grads["w_cand"] = dhh_pre.T @ x_in
    grads["u_cand"] = dhh_pre.T @ np.concatenate([s["r"] * s["h_prev"] for s in steps])
    grads["b_cand"] = dhh_pre.sum(axis=0)
    dx_in = (dr_pre @ params["w_reset"] + dz_gate @ params["w_update"]
             + dhh_pre @ params["w_cand"])
    grads["w_emb"] = _emb_grad(params, inputs, dx_in)
    return {"loss": loss, "hs": hs, "probs": probs, "grads": grads, "dh0": dh_next}


def lstm_run(params, inputs, targets, h0, c0):
    """Plain LSTM with forget/input/output gates and a tanh candidate cell.

    params keys: w_emb, w_forget/u_forget/b_forget, w_input/u_input/b_input,
    w_outgate/u_outgate/b_outgate, w_cand/u_cand/b_cand, w_out, b_out.
    """
    b_n, t_len = inputs.shape
    xs, xw = _input_products(params, inputs, ("w_forget", "w_input", "w_outgate", "w_cand"))
    h, c = h0, c0
    steps = []
    for t in range(t_len):
        f = _sigmoid(xw["w_forget"][t] + h @ params["u_forget"].T + params["b_forget"])
        i_g = _sigmoid(xw["w_input"][t] + h @ params["u_input"].T + params["b_input"])
        o = _sigmoid(xw["w_outgate"][t] + h @ params["u_outgate"].T + params["b_outgate"])
        rec = np.empty_like(h)
        for i in range(b_n):
            rec[i] = params["u_cand"] @ h[i]
        cc = np.tanh(xw["w_cand"][t] + rec + params["b_cand"])
        c_new = i_g * cc + f * c
        h_new = o * np.tanh(c_new)
        steps.append({"h_prev": h, "c_prev": c, "f": f, "i": i_g, "o": o, "cc": cc,
                      "c": c_new, "h": h_new})
        h, c = h_new, c_new
    hs = [s["h"] for s in steps]
    probs, loss = _output_losses(params, hs, targets)

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh_out = _output_grads(params, grads, hs, probs, targets)
    dh_next = np.zeros_like(h0)
    dc_next = np.zeros_like(c0)
    dpre = [None] * t_len
    for t in reversed(range(t_len)):
        s = steps[t]
        h_prev, c_prev = s["h_prev"], s["c_prev"]
        f, i_g, o, cc, c_t = s["f"], s["i"], s["o"], s["cc"], s["c"]
        dh = dh_out[t] + dh_next
        tanh_c = np.tanh(c_t)
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        do_pre = dh * tanh_c * o * (1.0 - o)
        df_pre = dc * c_prev * f * (1.0 - f)
        di_pre = dc * cc * i_g * (1.0 - i_g)
        dcc_pre = dc * i_g * (1.0 - cc * cc)
        dc_next = dc * f
        dh_prev = np.empty_like(dh)
        for i in range(b_n):
            dh_prev[i] = params["u_cand"].T @ dcc_pre[i]
        for name, d in (("forget", df_pre), ("input", di_pre), ("outgate", do_pre)):
            dh_prev += d @ params[f"u_{name}"]
        dpre[t] = (df_pre, di_pre, do_pre, dcc_pre)
        dh_next = dh_prev
    df_pre, di_pre, do_pre, dcc_pre = (np.concatenate(d) for d in zip(*dpre))
    x_in = xs.reshape(t_len * b_n, -1)
    h_prev = np.concatenate([s["h_prev"] for s in steps])
    for name, d in (("forget", df_pre), ("input", di_pre), ("outgate", do_pre)):
        grads[f"w_{name}"] = d.T @ x_in
        grads[f"u_{name}"] = d.T @ h_prev
        grads[f"b_{name}"] = d.sum(axis=0)
    grads["w_cand"] = dcc_pre.T @ x_in
    grads["u_cand"] = dcc_pre.T @ h_prev
    grads["b_cand"] = dcc_pre.sum(axis=0)
    dx_in = (df_pre @ params["w_forget"] + di_pre @ params["w_input"]
             + do_pre @ params["w_outgate"] + dcc_pre @ params["w_cand"])
    grads["w_emb"] = _emb_grad(params, inputs, dx_in)
    return {"loss": loss, "hs": hs, "probs": probs, "grads": grads,
            "dh0": dh_next, "dc0": dc_next}


def perplexity_per_window(params, spec, split, t_bptt):
    """Perplexity from one B=1 forward per window: returns (perplexity,
    whether some window holds a single token).

    Each window is a train-mode forward without dropout, which draws
    nothing and scores every row through the full softmax. A stream split
    is one sentence whose state is carried throughout.
    """
    if not split.has_sentences:
        split = EncodedSplit(split.ids, np.zeros(1, dtype=np.int64))
    total, count, state, single = 0.0, 0, None, False
    for chunk in chunk_sentences(split, t_bptt):
        loss, n, _, state = forward_chunk(params, spec, chunk, state, mode="train")
        total += loss
        count += n
        single = single or n == 1
    return float(np.exp(total / count)), single


def one_pass_update(params, grads, lr, rows, batch, clip_norm):
    """Each step over every block before the next: grads /= batch, the clip,
    np.isfinite(np.sum(g)) for every block, then p[idx] -= lr * g in
    panels of 256 KiB of g along its leading axis. Returns the clip factor."""
    if batch > 1:
        for name in grads:
            grads[name] /= batch
    factor = 1.0
    if clip_norm is not None:
        norm = float(np.sqrt(sum(float(np.sum(a * a)) for a in grads.values())))
        if norm > clip_norm:
            factor = clip_norm / norm
            for a in grads.values():
                a *= factor
    for name, g in grads.items():
        if not np.isfinite(np.sum(g)):
            raise DivergenceError(f"non-finite gradient in {name}", block=name)
    for name, g in grads.items():
        index = rows.get(name, slice(None))
        lead, *rest = index if isinstance(index, tuple) else (index,)
        step = max(1, (256 << 10) // g[:1].nbytes)
        for a in range(0, len(g), step):
            panel = g[a:a + step]
            np.multiply(panel, lr, out=panel)
            at = slice(a, a + step) if isinstance(lead, slice) else lead[a:a + step]
            params[name][(at, *rest)] -= panel
    return factor


def gated_epoch(params, spec, cfg, split, lr, rng):
    """train_epoch over a stream split with one_pass_update; returns
    (train_ppl, the clip factor of each window)."""
    total, count, state, factors = 0.0, 0, None, []
    for chunk in chunk_stream(split, cfg.t_bptt, cfg.batch):
        loss, n, cache, state = forward_chunk(params, spec, chunk, state, mode="train", rng=rng,
                                              p_drop=cfg.p_drop)
        rows = word_rows(spec, cache)
        grads, _ = backward_chunk(params, spec, cache, compact=True)
        factors.append(one_pass_update(params, grads, lr, rows, cfg.batch, cfg.clip_norm))
        total += loss
        count += n
    return float(np.exp(total / count)), factors
