import re

import numpy as np
import pytest

from optdec import CallCounter, RunTrace, summary_from_trace


def make_trace():
    counter = CallCounter()
    trace = RunTrace({"config_hash": "abc123", "seed": 7, "R0": "2.5"})
    trace.record(0, 0.0, counter)
    counter.grad_calls += 3
    counter.comm_rounds += 2
    trace.record(1, 0.5, counter, f_gap=0.125, grad_norm=1.0)
    counter.grad_calls += 4
    trace.record(2, 1.309, counter, f_gap=0.01)
    trace.flag("example diagnostic")
    return trace


def test_counters_nondecreasing():
    trace = make_trace()
    for col in ("grad_calls", "stoch_samples", "matvec_AtA", "comm_rounds"):
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
