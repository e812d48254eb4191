"""Unit tests for report formatting."""

import pytest

from repro.telemetry.text import Table


def test_table_renders_header_and_rows():
    table = Table("Title", ["a", "b"])
    table.add_row(1, "x")
    table.add_row(2.5, "yy")
    text = table.render()
    assert "Title" in text
    assert "a" in text and "b" in text
    assert "2.5" in text and "yy" in text


def test_table_wrong_arity_rejected():
    table = Table("t", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_table_float_formatting_trims_zeros():
    table = Table("t", ["v"])
    table.add_row(1.5)
    table.add_row(2.0)
    lines = [line.strip() for line in table.render().splitlines()]
    assert "1.5" in lines
    assert "2" in lines  # 2.0 rendered without a trailing ".0"
