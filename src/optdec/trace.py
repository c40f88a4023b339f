"""Per-iteration run traces with oracle/communication accounting.

A :class:`RunTrace` stores one row per outer iteration (plus one row per
restart boundary for restarted methods) together with run metadata.  The
CSV rendering is deterministic: ``,`` separator, ``.`` decimal point,
floats at 17 significant digits, no timestamps -- identical runs produce
byte-identical files.
"""

from __future__ import annotations

import io
from operator import attrgetter

import numpy as np

from .oracles import COUNTERS

__all__ = ["METRICS", "RunTrace", "summary_from_trace"]

# The metrics a row may carry: the one list of their names.  A row leaves a
# metric it did not measure empty.
METRICS = ("f_gap", "dual_gap", "grad_norm", "constraint_norm")

_COLUMNS = ("iter", "A_k", *METRICS, *COUNTERS)
_INT_COLUMNS = {"iter", *COUNTERS}
_NO_METRICS = dict.fromkeys(METRICS)
_counts = attrgetter(*COUNTERS)


def _fmt(col, value):
    if value is None:
        return ""
    if col in _INT_COLUMNS:
        return str(int(value))
    return format(float(value), ".17g")


class RunTrace:
    """Rows of (iteration, step sum, ``METRICS``, ``COUNTERS``) plus metadata.  Every row reads
    its counters from the trace's one ``counter``; a trace read by :meth:`from_csv` has none."""

    def __init__(self, counter, metadata: dict | None = None):
        self.counter = counter
        self.metadata = dict(metadata or {})
        self.rows: list[dict] = []
        self.flags: list[str] = []

    def record(self, it, A_k, **metrics):
        """Append a row with the ``metrics`` given and the counters of ``self.counter``.

        A metric left out is empty; a name not in ``METRICS`` raises TypeError.
        """
        if not metrics.keys() <= _NO_METRICS.keys():
            unknown = ", ".join(sorted(metrics.keys() - _NO_METRICS.keys()))
            raise TypeError(f"record() takes the metrics {', '.join(METRICS)}, got {unknown}")
        row = {"iter": int(it), "A_k": float(A_k), **_NO_METRICS, **metrics}
        row.update(zip(COUNTERS, _counts(self.counter)))
        self.rows.append(row)

    def flag(self, message: str):
        self.flags.append(str(message))

    def column(self, name) -> np.ndarray:
        return np.array([np.nan if r[name] is None else r[name] for r in self.rows],
                        dtype=int if name in _INT_COLUMNS else float)

    @property
    def final(self) -> dict:
        return self.rows[-1] if self.rows else {}

    # -- serialization -------------------------------------------------------

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.metadata):
            buf.write(f"# {key}={self.metadata[key]}\n")
        for msg in self.flags:
            buf.write(f"# flag={msg}\n")
        buf.write(",".join(_COLUMNS) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(c, row[c]) for c in _COLUMNS) + "\n")
        return buf.getvalue()

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def from_csv(cls, path) -> "RunTrace":
        """The trace in the file ``to_csv`` wrote; ValueError for a wrong header or row."""
        trace = cls(None)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        body = []
        for line in lines:
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                if key == "flag":
                    trace.flags.append(value)
                else:
                    trace.metadata[key] = value
            elif line:
                body.append(line)
        if not body or tuple(body[0].split(",")) != _COLUMNS:
            raise ValueError(f"{path}: a trace starts with the header {','.join(_COLUMNS)}")
        for line in body[1:]:
            parts = line.split(",")
            if len(parts) != len(_COLUMNS):
                raise ValueError(f"{path}: a trace row has {len(_COLUMNS)} fields, got {line!r}")
            trace.rows.append({col: None if part == "" else int(part) if col in _INT_COLUMNS
                               else float(part) for col, part in zip(_COLUMNS, parts)})
        return trace


def _last(trace: RunTrace, column: str):
    """Value of ``column`` in the last row that carries it, else ``None``."""
    return next((row[column] for row in reversed(trace.rows) if row[column] is not None), None)


def summary_from_trace(trace: RunTrace) -> dict:
    """Recompute the run summary from a trace alone (no hidden state).

    The summary holds ``iterations`` and ``A_N`` of the last row, one
    ``final_<metric>`` per name in ``METRICS`` and the last row's
    ``COUNTERS``.  Each ``final_*`` metric is read from the last row that
    carries it: a run records metrics every ``metric_every`` steps, and a
    network run's ``finish`` appends a closing row with counters only.  The
    certificate bound ``3 R0^2 / (2 A_N)`` is recomputed when the trace
    metadata carries ``R0``.
    """
    final = trace.final
    summary = {
        "iterations": final.get("iter"),
        "A_N": final.get("A_k"),
        **{f"final_{name}": _last(trace, name) for name in METRICS},
        **{name: final.get(name) for name in COUNTERS},
        "flags": list(trace.flags),
    }
    if "R0" in trace.metadata and final.get("A_k"):
        r0 = float(trace.metadata["R0"])
        summary["certificate_bound"] = 1.5 * r0 * r0 / float(final["A_k"])
    for key in ("config_hash", "seed", "version"):
        if key in trace.metadata:
            summary[key] = str(trace.metadata[key])
    return summary
