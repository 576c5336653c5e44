"""Key-value configuration files for the pipeline stages."""

from __future__ import annotations

import hashlib
import os

from .errors import ConfigError


def read_text_lines(path, error=ConfigError):
    """Yield the lines of a UTF-8 text file, as text-mode ``open`` reads them.

    A file that cannot be read, or whose bytes are not UTF-8, raises
    ``error``; a decoding error names ``path:line`` of the first bad byte.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise error(_not_utf8(path)) from None


def _not_utf8(path) -> str:
    """``path:line`` of the first byte of ``path`` that is not UTF-8, with the byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines as text mode does: \n, \r\n and a lone \r each end one.
        head = data[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        line = head.count("\n") + 1
        return f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
    return f"{path}: not UTF-8 text"  # the file changed while it was read


class Config:
    """Flat key = value configuration with typed accessors.

    Lines are ``key = value``; ``#`` starts a comment.  Unknown keys are kept
    (stages only read what they need); missing required keys raise
    ConfigError naming the key.
    """

    def __init__(self, values: dict, path: str | None = None):
        self.values = dict(values)
        self.path = path

    @classmethod
    def load(cls, path) -> "Config":
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        values = {}
        for lineno, raw in enumerate(read_text_lines(path), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
        return cls(values, path=str(path))

    def has(self, key: str) -> bool:
        return key in self.values

    def get_str(self, key: str, default=None) -> str:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required config key: {key}")
            return default
        return self.values[key]

    def get_float(self, key: str, default=None) -> float:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required config key: {key}")
            return float(default)
        try:
            return float(self.values[key])
        except ValueError:
            raise ConfigError(f"config key {key} is not a number: {self.values[key]!r}") from None

    def get_int(self, key: str, default=None) -> int:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required config key: {key}")
            return int(default)
        try:
            return int(self.values[key])
        except ValueError:
            raise ConfigError(f"config key {key} is not an integer: {self.values[key]!r}") from None

    def get_seed(self, default: int = 0) -> int:
        """Config seed, with the CALIBRIX_SEED environment variable as fallback."""
        if self.has("seed"):
            return self.get_int("seed")
        env = os.environ.get("CALIBRIX_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise ConfigError(f"CALIBRIX_SEED is not an integer: {env!r}") from None
        return default


def file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
