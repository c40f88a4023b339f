import re
from pathlib import Path

import numpy as np
import pytest

from optdec import CallCounter, RunTrace, summary_from_trace
from optdec.cli import _SWEEP_COLUMNS
from optdec.oracles import COUNTERS
from optdec.trace import _COLUMNS, METRICS

README = Path(__file__).resolve().parents[1] / "README.md"


def make_trace():
    counter = CallCounter()
    trace = RunTrace(counter, {"config_hash": "abc123", "seed": 7, "R0": "2.5"})
    trace.record(0, 0.0)
    counter.grad_calls += 3
    counter.comm_rounds += 2
    trace.record(1, 0.5, f_gap=0.125, grad_norm=1.0)
    counter.grad_calls += 4
    trace.record(2, 1.309, f_gap=0.01)
    trace.flag("example diagnostic")
    return trace


def test_counters_nondecreasing():
    trace = make_trace()
    for col in COUNTERS:
        vals = trace.column(col)
        assert (np.diff(vals) >= 0).all()


def test_csv_round_trip(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = RunTrace.from_csv(path)
    assert back.metadata["config_hash"] == "abc123"
    assert back.flags == ["example diagnostic"]
    assert back.rows == trace.rows


def _broken(tmp_path, line, replace):
    """The round-trip trace file with its ``line``-th line (from the end) edited."""
    path = tmp_path / "trace.csv"
    lines = make_trace().to_csv_text().splitlines()
    lines[line] = replace(lines[line])
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("line, replace, message", [
    (-4, lambda header: header.replace("A_k", "A"), "a trace starts with the header iter,A_k,"),
    (-4, lambda header: "", "a trace starts with the header"),
    (-2, lambda row: row.rsplit(",", 3)[0], "a trace row has 10 fields, got '1,"),
    (-1, lambda row: row + ",7", "a trace row has 10 fields, got '2,"),
], ids=["renamed_column", "no_header", "short_row", "long_row"])
def test_a_malformed_trace_file_raises_value_error(tmp_path, line, replace, message):
    # a wrong header was caught by an assert alone, which python -O strips,
    # and a short row read as a short dict that column() met with a KeyError
    with pytest.raises(ValueError, match=re.escape(message)):
        RunTrace.from_csv(_broken(tmp_path, line, replace))


def test_csv_formatting_stability(tmp_path):
    trace = make_trace()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    trace.to_csv(p1)
    trace.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.splitlines()[-1].startswith("2,")
    # decimal point, comma separator, no locale artifacts
    assert ";" not in text


def test_summary_recomputation_from_csv(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    summary_direct = summary_from_trace(trace)
    summary_csv = summary_from_trace(RunTrace.from_csv(path))
    assert summary_direct == summary_csv
    assert summary_csv["certificate_bound"] == 1.5 * 2.5 ** 2 / 1.309


def test_missing_metrics_render_empty(tmp_path):
    trace = make_trace()
    text = trace.to_csv_text()
    header = text.splitlines()[-3]
    assert header.split(",")[3] == ""  # dual_gap never recorded


def test_record_refuses_a_metric_outside_metrics():
    # a misspelt metric was a TypeError of the keyword list; a counter name
    # passed as a metric must not overwrite the counter read from the trace's counter
    trace = make_trace()
    for name in ("f_gaps", "grad_calls", "iter"):
        with pytest.raises(TypeError, match=f"got {name}$"):
            trace.record(3, 2.0, f_gap=0.0, **{name: 1})
    assert [row["iter"] for row in trace.rows] == [0, 1, 2]


def test_a_row_holds_every_column_and_reads_its_trace_counter():
    counter = CallCounter()
    trace = RunTrace(counter)
    for k, name in enumerate(COUNTERS):
        setattr(counter, name, k + 1)
    metrics = {name: 0.5 + k for k, name in enumerate(METRICS)}
    trace.record(4, 2.5, **metrics)
    assert _COLUMNS == ("iter", "A_k", *METRICS, *COUNTERS)
    assert trace.final == {"iter": 4, "A_k": 2.5, **metrics,
                           **{name: k + 1 for k, name in enumerate(COUNTERS)}}
    summary = summary_from_trace(trace)
    assert [summary[f"final_{name}"] for name in METRICS] == [0.5, 1.5, 2.5, 3.5]
    assert [summary[name] for name in COUNTERS] == [1, 2, 3, 4]


def test_csv_round_trip_keeps_every_column(tmp_path):
    counter = CallCounter()
    trace = RunTrace(counter)
    for k in range(3):
        for j, name in enumerate(COUNTERS):
            setattr(counter, name, getattr(counter, name) + j + k)
        trace.record(k, 0.25 * k, **{name: k / (j + 3) for j, name in enumerate(METRICS)})
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = RunTrace.from_csv(path)
    assert path.read_text().splitlines()[0] == ",".join(_COLUMNS)
    assert back.rows == trace.rows
    for name in _COLUMNS:
        assert np.array_equal(back.column(name), trace.column(name))


def _readme_columns(label):
    """The backquoted names on README's line that starts with ``label``."""
    line = next(line for line in README.read_text().splitlines() if line.startswith(label))
    return tuple(re.findall(r"`([^`]+)`", line))


def test_readme_lists_the_trace_and_sweep_columns():
    assert _readme_columns("- Trace columns:") == _COLUMNS
    assert _readme_columns("- Sweep columns:") == _SWEEP_COLUMNS
