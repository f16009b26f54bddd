"""Run configuration: line-oriented `section.key = value` text files.

Every field defaults to the crammed recipe, so an empty file is a
valid configuration. A section is declared beside the code it
configures (ModelConfig in model, PipelineConfig in corpus,
TrainSection in trainer); RunConfig.validate runs each section's own
validate, then the checks that span sections. RunConfig.rendered() is
the one text view of a config, each dotted key's value in file order:
config.txt, config diffs, the read-back check, the report's [run]
section and the prepared-data key all read it. Ablation presets mirror
the recipe-component rows of the results table (original data /
training / architecture and the minimal-modification variants) plus a
vocabulary sweep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

from .corpus import PipelineConfig
from .errors import ConfigurationError
from .model import ModelConfig
from .serde import dataclass_to_strs, dataclass_update_from_strs, read_text
from .trainer import TrainSection


@dataclass
class TokenizerSection:
    vocab_size: int = 32768
    input: str = ""
    max_chars_per_word: int = 100


@dataclass
class ReportSection:
    curve_interval: int = 50
    device: str = "rtx2080ti"


@dataclass
class RunConfig:
    tokenizer: TokenizerSection = field(default_factory=TokenizerSection)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSection = field(default_factory=TrainSection)
    report: ReportSection = field(default_factory=ReportSection)

    def sections(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def rendered(self) -> dict[str, str]:
        """Each dotted key -> its rendered value, in file order."""
        return {f"{name}.{key}": value
                for name, section in self.sections().items()
                for key, value in dataclass_to_strs(section).items()}

    def set(self, dotted_key: str, value: str) -> None:
        section_name, _, key = dotted_key.partition(".")
        section = self.sections().get(section_name)
        if section is None or key not in {f.name for f in fields(section)}:
            raise ConfigurationError(f"unknown config key {dotted_key!r}")
        dataclass_update_from_strs(section, {key: value}, f"{section_name}.")

    def validate(self) -> None:
        self.pipeline.validate()
        self.model.validate()
        self.train.validate()
        if self.tokenizer.max_chars_per_word < 1:
            raise ConfigurationError("tokenizer.max_chars_per_word must be positive")
        if self.report.curve_interval < 1:
            raise ConfigurationError("report.curve_interval must be positive")
        if self.tokenizer.vocab_size != self.model.vocab_size:
            raise ConfigurationError(
                "tokenizer.vocab_size and model.vocab_size disagree "
                f"({self.tokenizer.vocab_size} vs {self.model.vocab_size})"
            )
        if self.pipeline.seq_len != self.model.seq_len:
            raise ConfigurationError(
                "pipeline.seq_len and model.seq_len disagree "
                f"({self.pipeline.seq_len} vs {self.model.seq_len})"
            )
        # config.txt must give the run back: every value reads back as rendered.
        for key, value in self.rendered().items():
            line = f"{key} = {value}"
            if line.splitlines() != [line] or split_assignment(_strip_comment(line), "")[1] != value:
                raise ConfigurationError(
                    f"{key} = {value!r} would not read back from a config file "
                    "(a line break, space at either end, or '#' after whitespace)")


# A `#` at the start of a line or after whitespace starts a comment; one
# inside a value (a path like corpus#1.txt) is kept.
_COMMENT = re.compile(r"(?:^|\s)#.*")


def _strip_comment(raw: str) -> str:
    return _COMMENT.sub("", raw, count=1).strip()


def parse_run_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if line:
            where = f"line {lineno}"
            key, value = split_assignment(line, where)
            try:
                cfg.set(key, value)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{where}: {exc}") from exc
    return cfg


def split_assignment(text: str, where: str) -> tuple[str, str]:
    """`key = value` -> (key, value), both stripped; where prefixes the
    error when the `=` is missing."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ConfigurationError(f"{where}: expected key = value, got {text!r}")
    return key.strip(), value.strip()


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    for key, value in overrides.items():
        cfg.set(key, str(value))
    return cfg


def load_run_config(path: str) -> RunConfig:
    text = read_text(path)
    try:
        return parse_run_config(text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def render_run_config(cfg: RunConfig) -> str:
    """Full dump, one line per field, defaults included."""
    return "".join(f"{key} = {value}\n" for key, value in cfg.rendered().items())


def config_diff(a: RunConfig, b: RunConfig) -> dict[str, tuple[str, str]]:
    """Dotted keys whose rendered values differ, key -> (a, b)."""
    ra, rb = a.rendered(), b.rendered()
    return {key: (ra[key], rb[key]) for key in ra if ra[key] != rb[key]}


# Recipe-component ablation presets. Each maps dotted keys to values
# layered on top of the crammed defaults.
PRESETS: dict[str, dict[str, str]] = {
    "crammed": {},
    "original_data": {
        "pipeline.t": "none",
        "pipeline.dedup_min_len": "none",
        "pipeline.sort": "false",
    },
    "original_train": {
        "train.peak_lr": "1e-4",
        "train.peak_fraction": "0.1",
        "train.final_batch": "256",
        "train.ramp_end_fraction": "0.0",
        "train.beta2": "0.999",
        "train.eps": "1e-6",
        "train.clip_norm": "none",
        "model.dropout_rate": "0.1",
    },
    "original_arch": {
        "model.norm_placement": "post",
        "model.embedding_kind": "learned",
        "model.ffn_kind": "gelu",
        "model.qkv_bias": "true",
        "model.linear_bias": "true",
        "model.decoder_bias": "true",
        "model.nonlinear_head": "true",
        "model.sparse_prediction": "false",
        "model.final_norm": "false",
    },
    "minimal_train": {
        "train.schedule_kind": "cosine_decay",
        "train.ramp_end_fraction": "0.0",
    },
}
# original_arch with pre-norm, sparse prediction and a smaller epsilon.
PRESETS["minimal_arch"] = {**PRESETS["original_arch"], "model.norm_placement": "pre",
                           "model.sparse_prediction": "true", "model.layer_norm_eps": "1e-6"}

for _p in (12, 13, 14, 15, 16):
    PRESETS[f"vocab_{2 ** _p}"] = {
        "tokenizer.vocab_size": str(2 ** _p),
        "model.vocab_size": str(2 ** _p),
    }
