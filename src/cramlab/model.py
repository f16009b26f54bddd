"""Transformer encoder with every recipe toggle exposed.

Defaults describe the crammed variant: pre-norm residual blocks, gated
linear unit FFN, scaled sinusoidal positions, no biases anywhere, tied
embedding/decoder weights, layer norm after the embedding and at the
end of the stack, and logits computed only at masked positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .errors import ConfigurationError, ContractError
from .serde import dataclass_to_strs, dataclass_update_from_strs
from .tensor import (
    Tensor, add, concat_last, dropout, gather_rows, gelu, layer_norm,
    matmul, matmul_t, mul, permute, reshape, scale, slice_last, softmax,
    truncated_normal,
)

FFN_KINDS = ("glu_gelu", "gelu")
NORM_PLACEMENTS = ("pre", "post")
EMBEDDING_KINDS = ("scaled_sinusoidal", "learned", "sinusoidal", "rotary")


@dataclass
class ModelConfig:
    num_layers: int = 12
    hidden_dim: int = 768
    num_heads: int = 12
    ffn_dim: int = 3072
    vocab_size: int = 32768
    seq_len: int = 128
    ffn_kind: str = "glu_gelu"
    norm_placement: str = "pre"
    embedding_kind: str = "scaled_sinusoidal"
    qkv_bias: bool = False
    linear_bias: bool = False
    decoder_bias: bool = False
    nonlinear_head: bool = False
    sparse_prediction: bool = True
    final_norm: bool = True
    embedding_norm: bool = True
    tie_embeddings: bool = True
    layer_norm_eps: float = 1e-12
    dropout_rate: float = 0.0

    def validate(self) -> None:
        if self.num_layers < 0 or self.hidden_dim < 1 or self.num_heads < 1:
            raise ConfigurationError("layer/width/head counts must be positive")
        if self.hidden_dim % self.num_heads:
            raise ConfigurationError("hidden_dim must divide evenly into heads")
        if self.hidden_dim % 2:
            raise ConfigurationError("hidden_dim must be even for sinusoidal tables")
        if self.ffn_kind not in FFN_KINDS:
            raise ConfigurationError(f"unknown ffn_kind {self.ffn_kind!r}")
        if self.ffn_kind == "glu_gelu" and self.ffn_dim % 2:
            raise ConfigurationError("glu_gelu requires even ffn_dim")
        if self.norm_placement not in NORM_PLACEMENTS:
            raise ConfigurationError(f"unknown norm_placement {self.norm_placement!r}")
        if self.embedding_kind not in EMBEDDING_KINDS:
            raise ConfigurationError(f"unknown embedding_kind {self.embedding_kind!r}")
        if self.vocab_size < 6 or self.vocab_size > 65536:
            raise ConfigurationError("vocab_size must be in [6, 65536]")
        if self.seq_len < 1:
            raise ConfigurationError("seq_len must be positive")
        if self.layer_norm_eps <= 0:
            raise ConfigurationError("layer_norm_eps must be positive")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigurationError("dropout_rate must be in [0, 1)")
        if self.embedding_kind == "rotary" and (self.hidden_dim // self.num_heads) % 2:
            raise ConfigurationError("rotary needs an even per-head dimension")

    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    def to_strs(self) -> dict[str, str]:
        return dataclass_to_strs(self)

    @classmethod
    def from_strs(cls, strs: dict[str, str]) -> "ModelConfig":
        cfg = cls()
        dataclass_update_from_strs(cfg, strs)
        cfg.validate()
        return cfg


def param_count(config: ModelConfig) -> int:
    """Closed-form element count of the built parameter set."""
    config.validate()
    d, v, f = config.hidden_dim, config.vocab_size, config.ffn_dim
    total = v * d  # token embedding
    if config.embedding_kind == "scaled_sinusoidal":
        total += 1
    elif config.embedding_kind == "learned":
        total += config.seq_len * d
    if config.embedding_norm:
        total += 2 * d
    per_layer = 4 * d * d + 2 * (2 * d)  # projections + two layer norms
    if config.qkv_bias:
        per_layer += 3 * d
    if config.linear_bias:
        per_layer += d  # attention output bias
    per_layer += d * f
    per_layer += (f // 2 if config.ffn_kind == "glu_gelu" else f) * d
    if config.linear_bias:
        per_layer += f + d  # both FFN biases
    total += config.num_layers * per_layer
    if config.final_norm:
        total += 2 * d
    if config.nonlinear_head:
        total += d * d + 2 * d
        if config.linear_bias:
            total += d
    if not config.tie_embeddings:
        total += v * d
    if config.decoder_bias:
        total += v
    return total


def sinusoidal_table(S: int, d: int, dtype=np.float32) -> np.ndarray:
    """Interleaved sin/cos position table: [pos, 2i]=sin, [pos, 2i+1]=cos."""
    if d % 2:
        raise ConfigurationError("sinusoidal table needs even dimension")
    pos = np.arange(S, dtype=np.float64)[:, None]
    i = np.arange(d // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / d)
    table = np.empty((S, d), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table.astype(dtype)


def rotary_tables(S: int, dh: int, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) tables of shape (S, dh), half-duplicated frequencies."""
    if dh % 2:
        raise ConfigurationError("rotary needs an even per-head dimension")
    pos = np.arange(S, dtype=np.float64)[:, None]
    freq = 1.0 / np.power(10000.0, np.arange(0, dh, 2, dtype=np.float64) / dh)
    angles = pos * freq[None, :]
    cos = np.concatenate([np.cos(angles), np.cos(angles)], axis=1)
    sin = np.concatenate([np.sin(angles), np.sin(angles)], axis=1)
    return cos.astype(dtype), sin.astype(dtype)


class Model:
    def __init__(self, config: ModelConfig, params: dict[str, Tensor], dtype=np.float32):
        self.config = config
        self.params = params
        self.dtype = dtype
        self._rot_cache: tuple[np.ndarray, np.ndarray] | None = None

    # -- parameter bookkeeping -------------------------------------------
    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in self.params.items():
            v.data[...] = snap[k]

    @staticmethod
    def decay_exempt(name: str) -> bool:
        """Layer-norm parameters and the positional scale skip weight decay."""
        return "norm" in name or name == "pos_scale"

    # -- forward ----------------------------------------------------------
    def _ln(self, x: Tensor, stem: str) -> Tensor:
        return layer_norm(
            x,
            self.params[f"{stem}_gain"],
            self.params[f"{stem}_bias"],
            self.config.layer_norm_eps,
        )

    def _rot(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rot_cache is None:
            cos, sin = rotary_tables(self.config.seq_len, self.config.head_dim(), self.dtype)
            self._rot_cache = (cos[None, None], sin[None, None])
        return self._rot_cache

    def encode(
        self,
        ids: np.ndarray,
        key_mask: np.ndarray | None = None,
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Hidden states (B, S, d) after all blocks and the final norm."""
        cfg = self.config
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ContractError("batch must be 2-D (B, S)")
        B, S = ids.shape
        if S != cfg.seq_len:
            raise ContractError(f"batch width {S} != configured seq_len {cfg.seq_len}")
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise IndexError("token id outside vocabulary")
        if dropout_rate and rng is None:
            raise ContractError("dropout requires an rng")

        x = reshape(gather_rows(self.params["tok_emb"], ids.ravel()), (B, S, cfg.hidden_dim))
        if cfg.embedding_kind == "scaled_sinusoidal":
            table = sinusoidal_table(S, cfg.hidden_dim, self.dtype)
            x = add(x, mul(self.params["pos_scale"], Tensor(table)))
        elif cfg.embedding_kind == "sinusoidal":
            x = add(x, Tensor(sinusoidal_table(S, cfg.hidden_dim, self.dtype)))
        elif cfg.embedding_kind == "learned":
            x = add(x, self.params["pos_emb"])
        if cfg.embedding_norm:
            x = self._ln(x, "emb_norm")
        if dropout_rate:
            x = dropout(x, dropout_rate, rng)

        key_bias = None
        if key_mask is not None:
            bias = np.where(np.asarray(key_mask, bool), 0.0, -1e9).astype(self.dtype)
            key_bias = bias[:, None, None, :]

        for i in range(cfg.num_layers):
            x = self._block(x, i, key_bias, dropout_rate, rng)
        if cfg.final_norm:
            x = self._ln(x, "final_norm")
        return x

    def _block(self, x, i, key_bias, rate, rng):
        cfg = self.config
        if cfg.norm_placement == "pre":
            a = attention(self._ln(x, f"l{i}_attn_norm"), self.params, cfg, i,
                          key_bias=key_bias, rot=self._rot() if cfg.embedding_kind == "rotary" else None)
            if rate:
                a = dropout(a, rate, rng)
            x = add(x, a)
            f = ffn(self._ln(x, f"l{i}_ffn_norm"), self.params, cfg, i)
            if rate:
                f = dropout(f, rate, rng)
            return add(x, f)
        a = attention(x, self.params, cfg, i, key_bias=key_bias,
                      rot=self._rot() if cfg.embedding_kind == "rotary" else None)
        if rate:
            a = dropout(a, rate, rng)
        x = self._ln(add(x, a), f"l{i}_attn_norm")
        f = ffn(x, self.params, cfg, i)
        if rate:
            f = dropout(f, rate, rng)
        return self._ln(add(x, f), f"l{i}_ffn_norm")

    def logits(
        self,
        ids: np.ndarray,
        masked_positions=None,
        key_mask: np.ndarray | None = None,
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        cfg = self.config
        hidden = self.encode(ids, key_mask=key_mask, dropout_rate=dropout_rate, rng=rng)
        B, S, d = hidden.shape
        h = reshape(hidden, (B * S, d))
        positions = None if masked_positions is None else np.asarray(masked_positions)
        if positions is not None and cfg.sparse_prediction:
            h = gather_rows(h, positions)
        if cfg.nonlinear_head:
            h = matmul(h, self.params["head_w"])
            if cfg.linear_bias:
                h = add(h, self.params["head_b"])
            h = gelu(h)
            h = self._ln(h, "head_norm")
        dec = self.params["tok_emb"] if cfg.tie_embeddings else self.params["decoder"]
        out = matmul_t(h, dec)
        if cfg.decoder_bias:
            out = add(out, self.params["decoder_bias"])
        if positions is not None and not cfg.sparse_prediction:
            # Dense prediction decodes every position; the loss still
            # only sees the masked rows.
            out = gather_rows(out, positions)
        return out

    # -- persistence ------------------------------------------------------
    def save(self, path: str) -> None:
        ckpt.save_checkpoint(
            path, {k: v.data for k, v in self.params.items()}, self.config.to_strs()
        )

    @classmethod
    def load(cls, path: str, dtype=np.float32) -> "Model":
        arrays, config_strs = ckpt.load_checkpoint(path)
        config = ModelConfig.from_strs(config_strs)
        model = build(config, seed=0, dtype=dtype)
        for name, tensor in model.params.items():
            if name not in arrays:
                raise ContractError(f"checkpoint missing parameter {name}")
            if tuple(arrays[name].shape) != tuple(tensor.shape):
                raise ContractError(f"checkpoint shape mismatch for {name}")
            tensor.data[...] = arrays[name].astype(dtype)
        return model


def attention(x: Tensor, params: dict[str, Tensor], config: ModelConfig, layer: int = 0,
              key_bias: np.ndarray | None = None,
              rot: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Bidirectional multi-head scaled dot-product attention."""
    B, S, d = x.shape
    H, dh = config.num_heads, config.head_dim()
    p = params
    xf = reshape(x, (B * S, d))

    def proj(which: str) -> Tensor:
        out = matmul(xf, p[f"l{layer}_w{which}"])
        if config.qkv_bias:
            out = add(out, p[f"l{layer}_b{which}"])
        return permute(reshape(out, (B, S, H, dh)), (0, 2, 1, 3))

    q, k, v = proj("q"), proj("k"), proj("v")
    if rot is not None:
        q = _rotate(q, rot)
        k = _rotate(k, rot)
    scores = scale(matmul(q, permute(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    if key_bias is not None:
        scores = add(scores, Tensor(np.asarray(key_bias, dtype=x.dtype)))
    probs = softmax(scores, axis=-1)
    ctx = matmul(probs, v)
    ctx = reshape(permute(ctx, (0, 2, 1, 3)), (B * S, d))
    out = matmul(ctx, p[f"l{layer}_wo"])
    if config.linear_bias:
        out = add(out, p[f"l{layer}_bo"])
    return reshape(out, (B, S, d))


def _rotate(t: Tensor, rot: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Rotary rotation: t*cos + rotate_half(t)*sin over the head dim."""
    cos, sin = rot
    dh = t.shape[-1]
    half = dh // 2
    a = slice_last(t, 0, half)
    b = slice_last(t, half, dh)
    rotated = concat_last(scale(b, -1.0), a)
    return add(mul(t, Tensor(cos.astype(t.dtype))), mul(rotated, Tensor(sin.astype(t.dtype))))


def ffn(x: Tensor, params: dict[str, Tensor], config: ModelConfig, layer: int = 0) -> Tensor:
    """Feedforward block: gated (value * gelu(gate)) or plain gelu."""
    B, S, d = x.shape
    p = params
    h = matmul(reshape(x, (B * S, d)), p[f"l{layer}_w1"])
    if config.linear_bias:
        h = add(h, p[f"l{layer}_b1"])
    if config.ffn_kind == "glu_gelu":
        half = config.ffn_dim // 2
        value = slice_last(h, 0, half)
        gate = slice_last(h, half, config.ffn_dim)
        h = mul(value, gelu(gate))
    else:
        h = gelu(h)
    out = matmul(h, p[f"l{layer}_w2"])
    if config.linear_bias:
        out = add(out, p[f"l{layer}_b2"])
    return reshape(out, (B, S, d))


def build(config: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    """Construct and initialize all parameters deterministically."""
    config.validate()
    rng = np.random.default_rng(seed)
    d, v, f = config.hidden_dim, config.vocab_size, config.ffn_dim
    params: dict[str, Tensor] = {}

    def weight(name: str, shape) -> None:
        params[name] = Tensor(truncated_normal(shape, 0.02, rng, dtype),
                              requires_grad=True, name=name)

    def zeros(name: str, shape) -> None:
        params[name] = Tensor(np.zeros(shape, dtype), requires_grad=True, name=name)

    def norm(stem: str) -> None:
        params[f"{stem}_gain"] = Tensor(np.ones(d, dtype), requires_grad=True,
                                        name=f"{stem}_gain")
        zeros(f"{stem}_bias", d)

    weight("tok_emb", (v, d))
    if config.embedding_kind == "scaled_sinusoidal":
        params["pos_scale"] = Tensor(
            np.full(1, 1.0 / math.sqrt(d), dtype), requires_grad=True, name="pos_scale"
        )
    elif config.embedding_kind == "learned":
        weight("pos_emb", (config.seq_len, d))
    if config.embedding_norm:
        norm("emb_norm")
    fout = f // 2 if config.ffn_kind == "glu_gelu" else f
    for i in range(config.num_layers):
        norm(f"l{i}_attn_norm")
        for which in "qkvo":
            weight(f"l{i}_w{which}", (d, d))
        if config.qkv_bias:
            for which in "qkv":
                zeros(f"l{i}_b{which}", d)
        if config.linear_bias:
            zeros(f"l{i}_bo", d)
        norm(f"l{i}_ffn_norm")
        weight(f"l{i}_w1", (d, f))
        if config.linear_bias:
            zeros(f"l{i}_b1", f)
        weight(f"l{i}_w2", (fout, d))
        if config.linear_bias:
            zeros(f"l{i}_b2", d)
    if config.final_norm:
        norm("final_norm")
    if config.nonlinear_head:
        weight("head_w", (d, d))
        if config.linear_bias:
            zeros("head_b", d)
        norm("head_norm")
    if not config.tie_embeddings:
        weight("decoder", (v, d))
    if config.decoder_bias:
        zeros("decoder_bias", v)

    model = Model(config, params, dtype)
    built = sum(p.data.size for p in params.values())
    expected = param_count(config)
    if built != expected:
        raise ContractError(f"parameter enumeration {built} != closed form {expected}")
    return model
