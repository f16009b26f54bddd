"""Transformer encoder with every recipe toggle exposed.

Defaults describe the crammed variant: pre-norm residual blocks, gated
linear unit FFN, scaled sinusoidal positions, no biases anywhere, tied
embedding/decoder weights, layer norm after the embedding and at the
end of the stack, and the head applied only at masked positions
(sparse prediction). Either way the decoder computes logits only for
the masked rows: sparse prediction gathers them before the head, dense
prediction runs the head on every position and gathers them after it.

param_layout is the one reader of the bias and tying toggles. The
forward takes each optional parameter (a bias, the untied decoder) from
the parameter set with params.get, since it is there exactly when the
layout declares it; a missing bias reaches its product as None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .errors import ConfigurationError, ContractError
from .serde import dataclass_to_strs, dataclass_update_from_strs
from .tensor import (
    Tensor, add, attend, decoder_cross_entropy, dropout, gather_rows, gelu, glu_gelu,
    layer_norm, matmul, matmul_t, mul, reshape, truncated_normal,
)

FFN_KINDS = ("glu_gelu", "gelu")
NORM_PLACEMENTS = ("pre", "post")
EMBEDDING_KINDS = ("scaled_sinusoidal", "learned", "sinusoidal", "rotary")
NORMAL = "normal"  # param_layout init drawn from truncated_normal


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
    # False: the head runs on every position; only masked rows are decoded.
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


def param_layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str | float]]:
    """Every parameter as name -> (shape, init), in build and checkpoint order.

    init is NORMAL for a truncated-normal(0.02) draw, otherwise the
    constant every element starts at.
    """
    config.validate()
    d, v, f = config.hidden_dim, config.vocab_size, config.ffn_dim
    layout: dict[str, tuple[tuple[int, ...], str | float]] = {}

    def norm(stem: str) -> None:
        layout[f"{stem}_gain"] = ((d,), 1.0)
        layout[f"{stem}_bias"] = ((d,), 0.0)

    layout["tok_emb"] = ((v, d), NORMAL)
    if config.embedding_kind == "scaled_sinusoidal":
        layout["pos_scale"] = ((1,), 1.0 / math.sqrt(d))
    elif config.embedding_kind == "learned":
        layout["pos_emb"] = ((config.seq_len, d), NORMAL)
    if config.embedding_norm:
        norm("emb_norm")
    fout = f // 2 if config.ffn_kind == "glu_gelu" else f
    for i in range(config.num_layers):
        norm(f"l{i}_attn_norm")
        layout.update({f"l{i}_w{which}": ((d, d), NORMAL) for which in "qkvo"})
        if config.qkv_bias:
            layout.update({f"l{i}_b{which}": ((d,), 0.0) for which in "qkv"})
        if config.linear_bias:
            layout[f"l{i}_bo"] = ((d,), 0.0)
        norm(f"l{i}_ffn_norm")
        layout[f"l{i}_w1"] = ((d, f), NORMAL)
        if config.linear_bias:
            layout[f"l{i}_b1"] = ((f,), 0.0)
        layout[f"l{i}_w2"] = ((fout, d), NORMAL)
        if config.linear_bias:
            layout[f"l{i}_b2"] = ((d,), 0.0)
    if config.final_norm:
        norm("final_norm")
    if config.nonlinear_head:
        layout["head_w"] = ((d, d), NORMAL)
        if config.linear_bias:
            layout["head_b"] = ((d,), 0.0)
        norm("head_norm")
    if not config.tie_embeddings:
        layout["decoder"] = ((v, d), NORMAL)
    if config.decoder_bias:
        layout["decoder_bias"] = ((v,), 0.0)
    return layout


def param_count(config: ModelConfig) -> int:
    """Element count of the built parameter set."""
    return sum(math.prod(shape) for shape, _ in param_layout(config).values())


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
        self.rot = (rotary_tables(config.seq_len, config.head_dim(), dtype)
                    if config.embedding_kind == "rotary" else None)
        self.pos_table = None
        if config.embedding_kind in ("sinusoidal", "scaled_sinusoidal"):
            self.pos_table = sinusoidal_table(config.seq_len, config.hidden_dim, dtype)
            self.pos_table.flags.writeable = False

    # -- parameter bookkeeping -------------------------------------------
    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

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
            x = add(x, mul(self.params["pos_scale"], Tensor(self.pos_table)))
        elif cfg.embedding_kind == "sinusoidal":
            x = add(x, Tensor(self.pos_table))
        elif cfg.embedding_kind == "learned":
            x = add(x, self.params["pos_emb"])
        if cfg.embedding_norm:
            x = self._ln(x, "emb_norm")
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
        # Pre-norm normalizes each sublayer's input, post-norm each
        # residual sum.
        cfg = self.config
        pre = cfg.norm_placement == "pre"
        sublayers = (
            ("attn", lambda h: attention(h, self.params, cfg, i, key_bias=key_bias, rot=self.rot)),
            ("ffn", lambda h: ffn(h, self.params, cfg, i)),
        )
        for stem, sublayer in sublayers:
            norm = f"l{i}_{stem}_norm"
            x = add(x, dropout(sublayer(self._ln(x, norm) if pre else x), rate, rng))
            if not pre:
                x = self._ln(x, norm)
        return x

    def _decoded(self, ids, masked_positions, key_mask, dropout_rate,
                 rng) -> tuple[Tensor, Tensor, Tensor | None]:
        """The head's output at the rows to decode (masked_positions, or
        every row when None), the decoder table and its bias."""
        cfg = self.config
        hidden = self.encode(ids, key_mask=key_mask, dropout_rate=dropout_rate, rng=rng)
        B, S, d = hidden.shape
        h = reshape(hidden, (B * S, d))
        rows = masked_positions
        if rows is not None and cfg.sparse_prediction:
            h, rows = gather_rows(h, rows), None
        if cfg.nonlinear_head:
            h = gelu(matmul(h, self.params["head_w"], self.params.get("head_b")))
            h = self._ln(h, "head_norm")
        if rows is not None:
            # Dense prediction: the head ran on every position, but only
            # the masked rows are decoded.
            h = gather_rows(h, rows)
        dec = self.params.get("decoder", self.params["tok_emb"])
        return h, dec, self.params.get("decoder_bias")

    def logits(
        self,
        ids: np.ndarray,
        masked_positions=None,
        key_mask: np.ndarray | None = None,
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        return matmul_t(*self._decoded(ids, masked_positions, key_mask, dropout_rate, rng))

    def loss(self, ids: np.ndarray, masked_positions, labels, dropout_rate: float = 0.0,
             rng: np.random.Generator | None = None) -> Tensor:
        """Masked-LM loss at masked_positions: the bytes of
        cross_entropy_from_logits(self.logits(...), labels), through one
        (masked, V) logits buffer instead of two."""
        h, dec, bias = self._decoded(ids, masked_positions, None, dropout_rate, rng)
        return decoder_cross_entropy(h, dec, bias, labels)

    # -- persistence ------------------------------------------------------
    def save(self, path: str) -> None:
        ckpt.save_checkpoint(
            path, {k: v.data for k, v in self.params.items()}, self.config.to_strs()
        )

    @classmethod
    def load(cls, path: str, dtype=np.float32) -> "Model":
        """Wrap a checkpoint's arrays after checking them against the layout."""
        arrays, config_strs = ckpt.load_checkpoint(path)
        config = ModelConfig.from_strs(config_strs)
        layout = param_layout(config)
        extra = sorted(set(arrays) - set(layout))
        if extra:
            raise ContractError(f"checkpoint holds undeclared parameters {', '.join(extra)}")
        params: dict[str, Tensor] = {}
        for name, (shape, _) in layout.items():
            if name not in arrays:
                raise ContractError(f"checkpoint missing parameter {name}")
            if arrays[name].shape != shape:
                raise ContractError(f"checkpoint shape mismatch for {name}")
            params[name] = Tensor(arrays[name].astype(dtype, copy=False),
                                  requires_grad=True, name=name)
        return cls(config, params, dtype)


def attention(x: Tensor, params: dict[str, Tensor], config: ModelConfig, layer: int = 0,
              key_bias: np.ndarray | None = None,
              rot: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Bidirectional multi-head scaled dot-product attention."""
    B, S, d = x.shape
    p = params
    xf = reshape(x, (B * S, d))
    q, k, v = (matmul(xf, p[f"l{layer}_w{w}"], p.get(f"l{layer}_b{w}")) for w in "qkv")
    ctx = attend(q, k, v, S, config.num_heads, key_bias, rot)
    out = matmul(ctx, p[f"l{layer}_wo"], p.get(f"l{layer}_bo"))
    return reshape(out, (B, S, d))


def ffn(x: Tensor, params: dict[str, Tensor], config: ModelConfig, layer: int = 0) -> Tensor:
    """Feedforward block: gated (value * gelu(gate)) or plain gelu."""
    B, S, d = x.shape
    p = params
    h = matmul(reshape(x, (B * S, d)), p[f"l{layer}_w1"], p.get(f"l{layer}_b1"))
    h = glu_gelu(h) if config.ffn_kind == "glu_gelu" else gelu(h)
    out = matmul(h, p[f"l{layer}_w2"], p.get(f"l{layer}_b2"))
    return reshape(out, (B, S, d))


def build(config: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    """Construct and initialize all parameters deterministically."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, (shape, init) in param_layout(config).items():
        data = (truncated_normal(shape, 0.02, rng, dtype) if init == NORMAL
                else np.full(shape, init, dtype))
        params[name] = Tensor(data, requires_grad=True, name=name)
    return Model(config, params, dtype)
