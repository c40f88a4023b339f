"""Per-iteration run traces with oracle/communication accounting.

A :class:`RunTrace` stores one row per outer iteration (plus one row per
restart boundary for restarted methods) together with run metadata.  The
CSV rendering is deterministic: ``,`` separator, ``.`` decimal point,
floats at 17 significant digits, no timestamps -- identical runs produce
byte-identical files.
"""

from __future__ import annotations

import io

import numpy as np

__all__ = ["RunTrace", "summary_from_trace"]

_COLUMNS = (
    "iter",
    "A_k",
    "f_gap",
    "dual_gap",
    "grad_norm",
    "constraint_norm",
    "grad_calls",
    "stoch_samples",
    "matvec_AtA",
    "comm_rounds",
)

_INT_COLUMNS = {"iter", "grad_calls", "stoch_samples", "matvec_AtA", "comm_rounds"}


def _fmt(col, value):
    if value is None:
        return ""
    if col in _INT_COLUMNS:
        return str(int(value))
    return format(float(value), ".17g")


class RunTrace:
    """Rows of (iteration, step sum, gaps, norms, counters) plus metadata."""

    columns = _COLUMNS

    def __init__(self, metadata: dict | None = None):
        self.metadata = dict(metadata or {})
        self.rows: list[dict] = []
        self.flags: list[str] = []

    def record(self, it, A_k, counter, f_gap=None, dual_gap=None,
               grad_norm=None, constraint_norm=None):
        """Append a row with the metrics given and the four counters of ``counter``."""
        self.rows.append({
            "iter": int(it),
            "A_k": float(A_k),
            "f_gap": f_gap,
            "dual_gap": dual_gap,
            "grad_norm": grad_norm,
            "constraint_norm": constraint_norm,
            **counter.snapshot(),
        })

    def flag(self, message: str):
        self.flags.append(str(message))

    def column(self, name) -> np.ndarray:
        vals = [r[name] for r in self.rows]
        if name in _INT_COLUMNS:
            return np.array(vals, dtype=int)
        return np.array([np.nan if v is None else float(v) for v in vals])

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
        trace = cls()
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
        header = body[0].split(",")
        assert tuple(header) == _COLUMNS, "unexpected trace header"
        for line in body[1:]:
            parts = line.split(",")
            row = {}
            for col, part in zip(_COLUMNS, parts):
                if part == "":
                    row[col] = None
                elif col in _INT_COLUMNS:
                    row[col] = int(part)
                else:
                    row[col] = float(part)
            trace.rows.append(row)
        return trace


_METRICS = ("f_gap", "dual_gap", "grad_norm", "constraint_norm")


def _last(trace: RunTrace, column: str):
    """Value of ``column`` in the last row that carries it, else ``None``."""
    for row in reversed(trace.rows):
        if row[column] is not None:
            return row[column]
    return None


def summary_from_trace(trace: RunTrace) -> dict:
    """Recompute the run summary from a trace alone (no hidden state).

    Each ``final_*`` metric is read from the last row that carries it: a
    run records metrics every ``metric_every`` steps, and the network runner
    appends a closing row with counters only.  The certificate bound
    ``3 R0^2 / (2 A_N)`` is recomputed when the trace metadata carries
    ``R0``.
    """
    final = trace.final
    summary = {
        "iterations": final.get("iter"),
        "A_N": final.get("A_k"),
        **{f"final_{name}": _last(trace, name) for name in _METRICS},
        "grad_calls": final.get("grad_calls"),
        "stoch_samples": final.get("stoch_samples"),
        "matvec_AtA": final.get("matvec_AtA"),
        "comm_rounds": final.get("comm_rounds"),
        "flags": list(trace.flags),
    }
    if "R0" in trace.metadata and final.get("A_k"):
        r0 = float(trace.metadata["R0"])
        summary["certificate_bound"] = 1.5 * r0 * r0 / float(final["A_k"])
    for key in ("config_hash", "seed", "version"):
        if key in trace.metadata:
            summary[key] = str(trace.metadata[key])
    return summary
