"""Encoder tests: parameter accounting, toggle equivalences, position
tables, attention/FFN against direct numpy references, persistence."""

import math
import os
import tracemalloc
import zlib

import numpy as np
import pytest

import composed_ops
from cramlab import checkpoint as ckpt
from cramlab import model as model_module
from cramlab.config import PRESETS, RunConfig, apply_overrides
from cramlab.errors import ConfigurationError, ContractError
from cramlab.model import (
    Model, ModelConfig, attention, build, ffn, param_count, param_layout,
    rotary_tables, sinusoidal_table,
)
from cramlab.tensor import Tape, Tensor, mul, tsum


def small_config(**kw) -> ModelConfig:
    base = dict(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=64,
                vocab_size=64, seq_len=16)
    base.update(kw)
    return ModelConfig(**base)


def np_gelu(x):
    return 0.5 * x * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


# -- parameter accounting --------------------------------------------------------

def test_param_count_small_config_closed_form():
    # tok_emb 2048 + pos_scale 1 + emb_norm 64
    # + 2 layers * (4*32*32 + 2*64 + 32*64 + 32*32) + final_norm 64
    assert param_count(small_config()) == 16769


# Counts computed by the closed-form formula this layout replaced, so the
# layout is checked against an oracle it does not share code with.
PINNED_COUNTS = [
    ({}, 16769),
    ({"ffn_kind": "gelu"}, 18817),
    ({"norm_placement": "post"}, 16769),
    ({"embedding_kind": "learned"}, 17280),
    ({"embedding_kind": "sinusoidal"}, 16768),
    ({"embedding_kind": "rotary"}, 16768),
    ({"qkv_bias": True, "linear_bias": True, "decoder_bias": True}, 17281),
    ({"nonlinear_head": True}, 17857),
    ({"nonlinear_head": True, "linear_bias": True}, 18145),
    ({"tie_embeddings": False}, 18817),
    ({"final_norm": False, "embedding_norm": False}, 16641),
    ({"num_layers": 0}, 2177),
]


@pytest.mark.parametrize("kw, want", PINNED_COUNTS,
                         ids=[f"kw{i}" for i in range(len(PINNED_COUNTS))])
def test_param_count_matches_enumeration(kw, want):
    cfg = small_config(**kw)
    assert param_count(cfg) == want
    model = build(cfg, seed=1)
    assert sum(p.data.size for p in model.params.values()) == want
    assert list(model.params) == list(param_layout(cfg))


@pytest.mark.parametrize("preset, want", [
    ("crammed", 95984641),
    ("original_arch", 110945024),
    ("minimal_arch", 110945024),
])
def test_param_count_paper_shape(preset, want):
    cfg = RunConfig()
    apply_overrides(cfg, PRESETS[preset])
    assert (cfg.model.num_layers, cfg.model.hidden_dim, cfg.model.vocab_size) == (12, 768, 32768)
    assert param_count(cfg.model) == want


def test_build_deterministic_by_seed():
    a = build(small_config(), seed=3)
    b = build(small_config(), seed=3)
    c = build(small_config(), seed=4)
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()
    assert any(a.params[n].data.tobytes() != c.params[n].data.tobytes()
               for n in a.params)


def test_tied_embeddings_share_storage():
    tied = build(small_config(), seed=0)
    assert "decoder" not in tied.params
    untied = build(small_config(tie_embeddings=False), seed=0)
    assert untied.params["decoder"].shape == untied.params["tok_emb"].shape


def test_decay_exemptions():
    assert Model.decay_exempt("emb_norm_gain")
    assert Model.decay_exempt("l0_attn_norm_bias")
    assert Model.decay_exempt("pos_scale")
    assert not Model.decay_exempt("tok_emb")
    assert not Model.decay_exempt("l1_wq")


# -- position tables -------------------------------------------------------------

def test_sinusoidal_table_frozen_values():
    t = sinusoidal_table(8, 6, np.float64)
    assert t.shape == (8, 6)
    # position 0: sin(0)=0 at even slots, cos(0)=1 at odd slots
    assert np.allclose(t[0], [0, 1, 0, 1, 0, 1])
    assert abs(t[1, 0] - math.sin(1.0)) < 1e-12
    assert abs(t[1, 1] - math.cos(1.0)) < 1e-12
    assert abs(t[3, 2] - math.sin(3.0 / 10000 ** (2 / 6))) < 1e-12
    assert abs(t[5, 5] - math.cos(5.0 / 10000 ** (4 / 6))) < 1e-12
    with pytest.raises(ConfigurationError):
        sinusoidal_table(4, 5)


def test_rotary_tables_shape_and_position_zero():
    cos, sin = rotary_tables(7, 8, np.float64)
    assert cos.shape == sin.shape == (7, 8)
    assert np.allclose(cos[0], 1.0) and np.allclose(sin[0], 0.0)
    # frequencies duplicated across the two halves
    assert np.allclose(cos[:, :4], cos[:, 4:])
    assert abs(sin[2, 1] - math.sin(2.0 / 10000 ** (2 / 8))) < 1e-12


def test_scaled_sinusoidal_initial_scale():
    model = build(small_config(), seed=0)
    assert model.params["pos_scale"].data.shape == (1,)
    assert abs(float(model.params["pos_scale"].data[0]) - 1 / math.sqrt(32)) < 1e-7


@pytest.mark.parametrize("kind", ["sinusoidal", "scaled_sinusoidal"])
def test_position_table_is_built_once_per_model(kind, monkeypatch):
    model = build(small_config(embedding_kind=kind), seed=0)
    assert model.pos_table.tobytes() == sinusoidal_table(16, 32).tobytes()
    assert not model.pos_table.flags.writeable

    def rebuilt(*args):
        raise AssertionError("encode rebuilt the position table")

    monkeypatch.setattr(model_module, "sinusoidal_table", rebuilt)
    ids = np.random.default_rng(3).integers(6, 64, size=(2, 16))
    assert model.encode(ids).data.tobytes() == model.encode(ids).data.tobytes()


# -- attention and ffn against numpy ---------------------------------------------

def test_attention_single_head_matches_numpy():
    cfg = small_config(hidden_dim=4, num_heads=1, ffn_dim=8)
    model = build(cfg, seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    got = attention(Tensor(x), model.params, cfg, layer=0).data

    p = {k: v.data for k, v in model.params.items()}
    want = np.empty_like(x)
    for b in range(2):
        q = x[b] @ p["l0_wq"]
        k = x[b] @ p["l0_wk"]
        v = x[b] @ p["l0_wv"]
        s = q @ k.T / math.sqrt(4)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        want[b] = (a @ v) @ p["l0_wo"]
    assert np.allclose(got, want, atol=1e-5)


def test_attention_multi_head_differs_from_single_reshape():
    # heads partition the width: outputs must change when head count does
    cfg1 = small_config(hidden_dim=8, num_heads=1, ffn_dim=8)
    cfg2 = small_config(hidden_dim=8, num_heads=2, ffn_dim=8)
    m = build(cfg1, seed=7)
    x = Tensor(np.random.default_rng(8).standard_normal((1, 5, 8)).astype(np.float32))
    out1 = attention(x, m.params, cfg1, 0).data
    out2 = attention(x, m.params, cfg2, 0).data
    assert not np.allclose(out1, out2)


def test_ffn_glu_matches_numpy():
    cfg = small_config(hidden_dim=4, num_heads=1, ffn_dim=8)
    model = build(cfg, seed=9)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    got = ffn(Tensor(x), model.params, cfg, 0).data
    w1 = model.params["l0_w1"].data
    w2 = model.params["l0_w2"].data
    h = x.reshape(6, 4) @ w1
    out = (h[:, :4] * np_gelu(h[:, 4:])) @ w2
    assert np.allclose(got, out.reshape(2, 3, 4), atol=1e-5)


def test_ffn_plain_gelu_matches_numpy():
    cfg = small_config(hidden_dim=4, num_heads=1, ffn_dim=8, ffn_kind="gelu")
    model = build(cfg, seed=11)
    x = np.random.default_rng(12).standard_normal((1, 3, 4)).astype(np.float32)
    got = ffn(Tensor(x), model.params, cfg, 0).data
    h = np_gelu(x.reshape(3, 4) @ model.params["l0_w1"].data)
    want = (h @ model.params["l0_w2"].data).reshape(1, 3, 4)
    assert np.allclose(got, want, atol=1e-5)


def test_key_mask_blocks_padded_keys():
    cfg = small_config()
    model = build(cfg, seed=13)
    rng = np.random.default_rng(14)
    ids = rng.integers(6, 64, size=(2, 16))
    mask = np.ones((2, 16), bool)
    mask[:, -3:] = False
    base = model.encode(ids, key_mask=mask).data
    ids2 = ids.copy()
    ids2[:, -3:] = rng.integers(6, 64, size=(2, 3))  # only padded slots change
    again = model.encode(ids2, key_mask=mask).data
    # non-pad positions cannot see the padded keys
    assert np.allclose(base[:, :-3], again[:, :-3], atol=1e-6)
    assert not np.allclose(base, model.encode(ids2).data, atol=1e-6)


# -- gradient oracles through the blocks (double precision) ----------------------

ATTENTION_WEIGHTS = ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")
FFN_WEIGHTS = ("w1", "b1", "w2", "b2")


def _block_oracle(block, weights, **kw):
    """Worst finite-difference error of sum(block(x) * k) with respect to
    x and to every layer-0 weight the block reads, at d 8, H 2, S 4.

    Central differences through two stacked matmuls and a curved
    activation leave up to about 2e-6 of relative error on the smallest
    gradients, so callers bound it at 1e-5; a wrong backward is off by
    order one."""
    cfg = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                      vocab_size=16, seq_len=4, **kw)
    model = build(cfg, seed=40, dtype=np.float64)
    rng = np.random.default_rng(41)
    # Well above the 0.02 init, so softmax, gelu and the rotation are
    # exercised away from their near-linear regime.
    for p in model.params.values():
        p.data[...] = rng.normal(scale=0.5, size=p.shape)
    x = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 4, 8)))
    wrt = [model.params[f"l0_{w}"] for w in weights if f"l0_{w}" in model.params]
    return composed_ops.finite_diff_check(lambda: tsum(mul(block(x, model, cfg), k)), [x, *wrt])


def _attention(x, model, cfg):
    rot = rotary_tables(cfg.seq_len, cfg.head_dim(), np.float64)
    return attention(x, model.params, cfg, 0,
                     rot=rot if cfg.embedding_kind == "rotary" else None)


def _ffn(x, model, cfg):
    return ffn(x, model.params, cfg, 0)


@pytest.mark.parametrize("kw", [dict(embedding_kind="rotary"),
                                dict(qkv_bias=True, linear_bias=True)],
                         ids=["rotary", "biases"])
def test_fd_attention_block(kw):
    assert _block_oracle(_attention, ATTENTION_WEIGHTS, **kw) < 1e-5


@pytest.mark.parametrize("kw", [dict(ffn_kind="glu_gelu"), dict(ffn_kind="gelu"),
                                dict(ffn_kind="glu_gelu", linear_bias=True)],
                         ids=["glu_gelu", "gelu", "glu_gelu-biases"])
def test_fd_ffn_block(kw):
    assert _block_oracle(_ffn, FFN_WEIGHTS, **kw) < 1e-5


# -- toggle equivalences ----------------------------------------------------------

def test_pre_and_post_norm_agree_when_norms_are_identity(monkeypatch):
    ids = np.random.default_rng(15).integers(6, 64, size=(2, 16))
    pre = build(small_config(norm_placement="pre"), seed=16)
    post = build(small_config(norm_placement="post"), seed=16)
    with monkeypatch.context() as m:
        m.setattr("cramlab.model.layer_norm", lambda x, gain, bias, eps: x)
        a = pre.encode(ids).data
        b = post.encode(ids).data
    assert np.array_equal(a, b)
    # real norms are back once the patch is undone
    assert not np.allclose(pre.encode(ids).data, a, atol=1e-3)


def test_sparse_and_dense_prediction_agree():
    ids = np.random.default_rng(17).integers(6, 64, size=(2, 16))
    masked = np.array([1, 5, 17, 30])
    sparse = build(small_config(sparse_prediction=True), seed=18)
    dense = build(small_config(sparse_prediction=False), seed=18)
    ls = sparse.logits(ids, masked_positions=masked).data
    ld = dense.logits(ids, masked_positions=masked).data
    assert ls.shape == ld.shape == (4, 64)
    assert np.allclose(ls, ld, atol=1e-5)


def test_dense_without_positions_returns_all_rows():
    model = build(small_config(sparse_prediction=False), seed=19)
    ids = np.random.default_rng(20).integers(6, 64, size=(2, 16))
    assert model.logits(ids).data.shape == (32, 64)


@pytest.mark.parametrize("kw", [{}, dict(embedding_kind="rotary"),
                                dict(norm_placement="post", decoder_bias=True)],
                         ids=["crammed", "rotary", "post_norm"])
def test_gathered_rows_match_full_rows_in_float64(kw):
    # Sparse prediction gathers the masked rows inside the last block, so
    # its FFN and the final norm see fewer rows; dense prediction without
    # a nonlinear head is the same function over every row. In float64
    # the loss and every parameter gradient must agree to rounding. The
    # middle sequence has no masked row, so only its keys and values
    # reach the loss.
    rng = np.random.default_rng(31)
    ids = rng.integers(6, 64, size=(3, 16))
    masked = np.sort(np.concatenate([rng.choice(16, 5, replace=False),
                                     32 + rng.choice(16, 4, replace=False)]))
    results = []
    for sparse in (True, False):
        model = build(small_config(sparse_prediction=sparse, **kw), seed=32, dtype=np.float64)
        for p in model.params.values():
            p.data[...] += np.random.default_rng(33).normal(scale=0.3, size=p.shape)
        with Tape() as tape:
            loss = model.loss(ids, masked, ids.ravel()[masked])
            tape.backward(loss)
        results.append((loss.item(), {k: p.grad for k, p in model.params.items()}))
    (sparse_loss, sparse_grads), (dense_loss, dense_grads) = results
    assert abs(sparse_loss - dense_loss) <= 1e-12 * abs(dense_loss)
    assert sparse_grads.keys() == dense_grads.keys()
    for name, g in sparse_grads.items():
        want = dense_grads[name]
        assert np.abs(want).max() > 0, name
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
def test_products_and_norms_see_the_rows_they_compute(monkeypatch, sparse):
    # Sparse prediction runs the last block's FFN, the final norm and the
    # decoder on the masked rows only; every other product and norm, and
    # every one of a dense model's, sees all B*S rows.
    seen = []

    def counting(fn, rows_of):
        def wrapped(*args, **kwargs):
            seen.append(rows_of(*args))
            return fn(*args, **kwargs)
        return wrapped

    rows = lambda t: math.prod(t.shape[:-1])
    monkeypatch.setattr(model_module, "matmul", counting(
        model_module.matmul, lambda a, b, *_: (b.name, rows(a))))
    monkeypatch.setattr(model_module, "layer_norm", counting(
        model_module.layer_norm, lambda x, gain, *_: (gain.name, rows(x))))
    monkeypatch.setattr(model_module, "decoder_cross_entropy", counting(
        model_module.decoder_cross_entropy, lambda h, *_: ("decoder", rows(h))))
    model = build(small_config(sparse_prediction=sparse), seed=34)
    ids = np.random.default_rng(35).integers(6, 64, size=(2, 16))
    masked = np.array([1, 5, 17, 30, 31])
    model.loss(ids, masked, ids.ravel()[masked])
    few = {"decoder"} | ({"l1_ffn_norm_gain", "l1_w1", "l1_w2", "final_norm_gain"}
                         if sparse else set())
    assert len(seen) == 6 * 2 + 2 * 2 + 2 + 1  # products, block norms, outer norms, decoder
    assert seen == [(name, len(masked) if name in few else 32) for name, _ in seen]


@pytest.mark.parametrize("kind", ["learned", "sinusoidal", "rotary"])
def test_alternative_embeddings_run(kind):
    model = build(small_config(embedding_kind=kind), seed=21)
    ids = np.random.default_rng(22).integers(6, 64, size=(1, 16))
    out = model.encode(ids)
    assert out.shape == (1, 16, 32)
    assert np.isfinite(out.data).all()


def test_rotary_position_dependence():
    # same token at two positions must produce different hidden states
    model = build(small_config(embedding_kind="rotary", embedding_norm=False,
                               final_norm=False, num_layers=1), seed=23)
    ids = np.full((1, 16), 7)
    ids[0, 3] = 9
    out = model.encode(ids).data[0]
    assert not np.allclose(out[0], out[1], atol=1e-6)


def test_nonlinear_head_changes_logits_only():
    plain = build(small_config(), seed=24)
    headed = build(small_config(nonlinear_head=True), seed=24)
    ids = np.random.default_rng(25).integers(6, 64, size=(1, 16))
    assert np.allclose(plain.encode(ids).data, headed.encode(ids).data)
    assert not np.allclose(plain.logits(ids, masked_positions=[2]).data,
                           headed.logits(ids, masked_positions=[2]).data)


# -- input validation --------------------------------------------------------------

def test_encode_validates_batch():
    model = build(small_config(), seed=26)
    with pytest.raises(ContractError):
        model.encode(np.zeros(16, int))
    with pytest.raises(ContractError):
        model.encode(np.zeros((1, 8), int))
    with pytest.raises(IndexError):
        model.encode(np.full((1, 16), 64))
    with pytest.raises(ContractError):
        model.encode(np.zeros((1, 16), int), dropout_rate=0.5)


@pytest.mark.parametrize("kw", [
    {"num_heads": 5},
    {"hidden_dim": 33, "num_heads": 3},
    {"ffn_dim": 63},
    {"ffn_kind": "relu"},
    {"norm_placement": "sandwich"},
    {"embedding_kind": "alibi"},
    {"vocab_size": 4},
    {"vocab_size": 70000},
    {"dropout_rate": 1.0},
    {"layer_norm_eps": 0.0},
    {"num_heads": 16, "hidden_dim": 16, "embedding_kind": "rotary"},
    {"ffn_dim": -4},
])
def test_config_validation_rejects(kw):
    with pytest.raises(ConfigurationError):
        small_config(**kw).validate()


# -- persistence --------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = build(small_config(qkv_bias=True, nonlinear_head=True), seed=27)
    ids = np.random.default_rng(28).integers(6, 64, size=(2, 16))
    want = model.logits(ids, masked_positions=[0, 9]).data
    path = str(tmp_path / "ck")
    model.save(path)
    back = Model.load(path)
    assert back.config == model.config
    for name, p in model.params.items():
        assert np.array_equal(back.params[name].data, p.data)
    assert np.allclose(back.logits(ids, masked_positions=[0, 9]).data, want)


def test_checkpoint_detects_missing_param(tmp_path):
    model = build(small_config(), seed=29)
    path = str(tmp_path / "ck")
    good = {k: v.data for k, v in model.params.items()}
    missing = dict(good)
    missing.pop("l1_wq")
    reshaped = dict(good, l1_wq=good["l1_wq"].reshape(16, 64))
    extra = dict(good, decoder=good["tok_emb"], l9_wq=good["l1_wq"])
    for arrays, message in [(missing, "missing parameter l1_wq"),
                            (reshaped, "shape mismatch for l1_wq"),
                            (extra, "undeclared parameters decoder, l9_wq")]:
        ckpt.save_checkpoint(path, arrays, model.config.to_strs())
        with pytest.raises(ContractError, match=message):
            Model.load(path)


def test_load_wraps_checkpoint_without_initializing(tmp_path, monkeypatch):
    model = build(small_config(embedding_kind="learned", tie_embeddings=False,
                               linear_bias=True), seed=30)
    path = str(tmp_path / "ck")
    model.save(path)

    def no_init(*args, **kwargs):
        raise AssertionError("Model.load drew an initialization")

    monkeypatch.setattr("cramlab.model.truncated_normal", no_init)
    back = Model.load(path)
    assert list(back.params) == list(model.params)
    for name, p in model.params.items():
        assert back.params[name].data.dtype == np.float32
        assert back.params[name].data.tobytes() == p.data.tobytes()
        assert back.params[name].requires_grad and back.params[name].name == name


def test_checkpoint_torn_save_is_refused(tmp_path, monkeypatch):
    model = build(small_config(), seed=31)
    path = str(tmp_path / "ck")
    model.save(path)
    moved = {k: v.data + 1 for k, v in model.params.items()}
    real_replace = os.replace
    done: list[str] = []

    def crash_on_second_replace(src, dst):
        if done:
            raise OSError("simulated crash between the two renames")
        done.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_second_replace)
    with pytest.raises(OSError):
        ckpt.save_checkpoint(path, moved, model.config.to_strs())
    monkeypatch.undo()
    with pytest.raises(ContractError, match="does not match its manifest"):
        ckpt.load_checkpoint(path)


def test_checkpoint_detects_flipped_blob_byte(tmp_path):
    model = build(small_config(), seed=32)
    path = str(tmp_path / "ck")
    model.save(path)
    with open(ckpt.blob_path(path), "r+b") as fh:
        fh.seek(1001)
        byte = fh.read(1)
        fh.seek(1001)
        fh.write(bytes([byte[0] ^ 0x10]))
    with pytest.raises(ContractError, match="does not match its manifest"):
        Model.load(path)


def test_checkpoint_load_holds_one_copy_of_the_blob(tmp_path):
    rng = np.random.default_rng(34)
    arrays = {f"w{i}": rng.standard_normal((256, 1024)).astype(np.float32)
              for i in range(4)}
    path = str(tmp_path / "ck")
    ckpt.save_checkpoint(path, arrays)
    nbytes = os.path.getsize(ckpt.blob_path(path))
    tracemalloc.start()
    try:
        back, _ = ckpt.load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * nbytes, (peak, nbytes)
    for name, a in arrays.items():
        got = back[name]
        assert got.tobytes() == a.tobytes()
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.flags.writeable and got.flags.aligned
    back["w1"][...] = 0.0
    assert back["w0"].tobytes() == arrays["w0"].tobytes()
    assert back["w2"].tobytes() == arrays["w2"].tobytes()


def test_checkpoint_writer_matches_joined_copy_writer(tmp_path):
    model = build(small_config(), seed=36)
    arrays = {k: v.data for k, v in model.params.items()}
    # Arrays the writer must convert: float64, a transposed view, a scalar.
    arrays.update(wide=np.linspace(-1.0, 1.0, 12).reshape(3, 4),
                  turned=model.params["l1_wq"].data.T, scalar=np.float32(2.5))
    got, want = str(tmp_path / "got"), str(tmp_path / "want")
    ckpt.save_checkpoint(got, arrays, model.config.to_strs())
    composed_ops.save_checkpoint(want, arrays, model.config.to_strs())
    for a, b in ((got, want), (ckpt.blob_path(got), ckpt.blob_path(want))):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), a
    with open(got, encoding="ascii") as fh:
        blob_line = [ln.split() for ln in fh if ln.startswith("blob ")]
    with open(ckpt.blob_path(got), "rb") as fh:
        blob = fh.read()
    assert blob_line == [["blob", str(len(blob)), str(zlib.crc32(blob))]]
    assert sorted(os.listdir(tmp_path)) == ["got", "got.bin", "want", "want.bin"]


def test_checkpoint_short_blob_without_blob_line_is_refused(tmp_path):
    model = build(small_config(), seed=35)
    path = str(tmp_path / "ck")
    model.save(path)
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(ln for ln in lines if not ln.startswith("blob ")) + "\n")
    blob = ckpt.blob_path(path)
    os.truncate(blob, os.path.getsize(blob) - 8)
    with pytest.raises(ContractError, match="blob too short for tensor"):
        Model.load(path)


@pytest.mark.parametrize("bad", ["tensor w 2x2", "tensor w 2xa 0", "blob 12"])
def test_checkpoint_malformed_manifest_line_names_the_file_and_line(tmp_path, bad):
    path = str(tmp_path / "ck")
    ckpt.save_checkpoint(path, {"v": np.zeros(3, np.float32)})
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines[:1] + [bad] + lines[1:]) + "\n")
    with pytest.raises(ContractError) as info:
        ckpt.load_checkpoint(path)
    assert str(info.value) == f"{path}:2: malformed manifest line {bad!r}"


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["cramlab-checkpoint v2"] + lines[1:], "{path}: not a checkpoint manifest"),
    (lambda lines: lines[:1] + ["weights v 3 0"] + lines[1:],
     "{path}:2: unrecognized manifest line 'weights v 3 0'"),
    (lambda lines: [ln.replace("tensor v 3 0", "tensor v 3 2") for ln in lines],
     "{path}: misaligned offset for v"),
], ids=["header", "unknown-line", "misaligned"])
def test_checkpoint_foreign_manifest_is_refused(tmp_path, edit, message):
    path = str(tmp_path / "ck")
    ckpt.save_checkpoint(path, {"v": np.zeros(3, np.float32)})
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    with pytest.raises(ContractError) as info:
        ckpt.load_checkpoint(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("name", ["", "two words"])
def test_checkpoint_save_refuses_an_invalid_tensor_name(tmp_path, name):
    path = tmp_path / "ck"
    with pytest.raises(ContractError) as info:
        ckpt.save_checkpoint(str(path), {"v": np.zeros(3, np.float32), name: np.ones(2)})
    assert str(info.value) == f"invalid tensor name {name!r}"
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_without_blob_line_still_loads(tmp_path):
    model = build(small_config(), seed=33)
    path = str(tmp_path / "ck")
    model.save(path)
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    assert sum(ln.startswith("blob ") for ln in lines) == 1
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(ln for ln in lines if not ln.startswith("blob ")) + "\n")
    back = Model.load(path)
    for name, p in model.params.items():
        assert back.params[name].data.tobytes() == p.data.tobytes()
