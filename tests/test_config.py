"""Tests for the key-value configuration reader."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibrix.config import Config
from calibrix.errors import CalibrixError, ConfigError

VALID = ["# two-step run", "seed = 3", "", "report_out = uq.txt  # comment",
         "walkers=6", "method = two-step"]


def test_reads_keys_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(VALID) + "\n")
    cfg = Config.load(path)
    assert cfg.values == {"seed": "3", "report_out": "uq.txt", "walkers": "6",
                          "method": "two-step"}
    assert cfg.get_seed() == 3


def test_non_utf8_names_path_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 3\r\nmethod = two\xffstep\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2: not UTF-8 text (byte 0xff)")):
        Config.load(path)


def test_directory_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        Config.load(tmp_path)


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(row=st.integers(0, len(VALID) - 1),
           text=st.text(alphabet=st.characters(exclude_categories=("Cs",),
                                               exclude_characters="=#\r\n"),
                        min_size=1, max_size=12).filter(str.strip))
    def test_line_without_equals_names_path_and_line(self, tmp_path_factory, row, text):
        path = tmp_path_factory.getbasetemp() / "broken.cfg"
        lines = VALID[:row] + [text] + VALID[row + 1:]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{row + 1}:")):
            Config.load(path)

    @settings(max_examples=80, deadline=None)
    @given(at=st.integers(0, 80), cut=st.integers(0, 8), junk=st.binary(max_size=8))
    def test_corrupted_bytes_parse_or_raise_typed(self, tmp_path_factory, at, cut, junk):
        raw = ("\n".join(VALID) + "\n").encode()
        path = tmp_path_factory.getbasetemp() / "corrupt.cfg"
        path.write_bytes(raw[:at] + junk + raw[at + cut:])
        try:
            cfg = Config.load(path)
        except CalibrixError:
            return
        assert all("=" not in key for key in cfg.values)
