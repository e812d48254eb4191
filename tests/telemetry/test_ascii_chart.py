"""Tests for the terminal chart renderer."""

from repro.telemetry.series import TimeSeries
from repro.telemetry.text import render_chart, render_timeseries


def ramp(n=100):
    return [(float(t), float(t) * 2) for t in range(n)]


def test_contains_title_and_axis():
    text = render_chart(ramp(), title="My Chart")
    assert text.startswith("My Chart")
    assert "+" in text and "-" in text


def test_y_labels_show_extremes():
    text = render_chart(ramp(100))
    assert "198" in text  # max value
    assert "0" in text


def test_x_labels_show_time_span():
    text = render_chart(ramp(100))
    assert "0s" in text
    assert "99s" in text


def test_monotone_series_plots_monotone():
    text = render_chart(ramp(), width=20, height=5)
    rows = [line for line in text.splitlines() if "|" in line and "*" in line]
    # The first star appears on a later column for lower rows.
    first_cols = [row.index("*") for row in rows]
    assert first_cols == sorted(first_cols, reverse=True)


def test_flat_series_renders():
    text = render_chart([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)])
    assert "*" in text


def test_too_few_points():
    assert "not enough data" in render_chart([(0.0, 1.0)], title="x")


def test_markers_rendered():
    text = render_chart(ramp(), markers=[(50.0, "crash")])
    assert "^" in text
    assert "^ t=50s crash" in text


def test_marker_outside_span_ignored():
    text = render_chart(ramp(), markers=[(1000.0, "nope")])
    assert "nope" not in text


def test_render_timeseries_uses_name_as_default_title():
    series = TimeSeries("occupancy")
    for t in range(50):
        series.record(float(t), float(t % 7))
    text = render_timeseries(series)
    assert text.startswith("occupancy")


def test_dimensions_respected():
    text = render_chart(ramp(), width=30, height=6, title="")
    plot_rows = [line for line in text.splitlines() if line.strip().startswith("|") or " |" in line]
    data_rows = [line for line in text.splitlines() if "|" in line and "+" not in line]
    assert len(data_rows) == 6
