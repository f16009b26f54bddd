"""String <-> dataclass field conversion shared by config files and
checkpoint manifests, the one way input and run text files are read,
and the one way every artifact file is written."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import types
import typing

from .errors import ConfigurationError, ContractError


def parse_scalar(ftype, text: str):
    """Parse text into ftype (int, finite float, bool, str, or X | None)."""
    origin = typing.get_origin(ftype)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(ftype) if a is not type(None)]
        if text.strip().lower() in ("none", "null", ""):
            return None
        if len(args) != 1:
            raise ConfigurationError(f"unsupported union type {ftype}")
        return parse_scalar(args[0], text)
    text = text.strip()
    if ftype is bool:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"not a boolean: {text!r}")
    if ftype is int:
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigurationError(f"not an integer: {text!r}") from exc
    if ftype is float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigurationError(f"not a finite number: {text!r}")
        return value
    if ftype is str:
        return text
    raise ConfigurationError(f"unsupported field type {ftype}")


def render_scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dataclass_to_strs(obj) -> dict[str, str]:
    out = {}
    for f in dataclasses.fields(obj):
        out[f.name] = render_scalar(getattr(obj, f.name))
    return out


def dataclass_update_from_strs(obj, strs: dict[str, str], prefix: str = ""):
    """Set fields named in strs, parsing values by annotation; unknown
    field names raise ConfigurationError, and so do values that do not
    parse, naming prefix + the field."""
    hints = typing.get_type_hints(type(obj))
    names = {f.name for f in dataclasses.fields(obj)}
    for key, text in strs.items():
        if key not in names:
            raise ConfigurationError(
                f"unknown field {key!r} for {type(obj).__name__}"
            )
        try:
            value = parse_scalar(hints[key], text)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{prefix}{key}: {exc}") from exc
        setattr(obj, key, value)
    return obj


def read_text(path: str, encoding: str = "utf-8") -> str:
    """The text of a file in an ASCII-compatible encoding, with CRLF and
    CR line ends read as LF, as open() reads them. A byte that does not
    decode raises ContractError naming path:line."""
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ContractError(
            f"{path}:{line}: byte 0x{data[exc.start]:02x} is not {encoding} text") from None


@contextlib.contextmanager
def committed(path: str):
    """Yield a new binary file beside path and rename it over path when
    the block ends. Its name starts with path's and is unique to the
    writer, so overlapping writers each commit a whole file and the last
    rename wins; an exception removes it. Nothing is fsynced: a commit
    outlives a killed process, not a power loss."""
    tmp = f"{path}.tmp-{os.urandom(8).hex()}"
    # Created exclusively, with open()'s own bits: 0o666 less the umask.
    fh = open(tmp, "wb", opener=lambda p, flags: os.open(p, flags | os.O_EXCL, 0o666))
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    """Commit text to path as UTF-8."""
    with committed(path) as fh:
        fh.write(text.encode("utf-8"))
