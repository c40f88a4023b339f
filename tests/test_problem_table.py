"""The problem table ``optdec.cli.PROBLEMS``: the README lists exactly its
kinds, keys, defaults and domains, and ``optdec run`` refuses every field
outside its record before it reads a file or builds anything.  Each inline
topology kind's record in ``optdec.cli.TOPOLOGIES`` takes the least ``m``
its ``Topology`` constructor takes.

The refusal test is derandomized: for every kind and every numeric field
of its record (the inline topology's ``m`` and ``p`` included, checked
against the record of the topology kind drawn), a value outside the
field's domain -- a wrong type, a non-finite number, one below the least
value or above the greatest, a fraction where an integer is due -- must
exit 2 with a message that names ``problem.<key>`` or ``topology.<key>``.
Every other field holds a valid value or is left out, and the file paths
name files that do not exist, so a config that passed the checks would
fail on reading them; ``execute_run`` is replaced by a function that fails
the test, so a config that passed them would fail the test first.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optdec.cli as cli
from optdec.cli import (FILE_OR_NULL, PROBLEMS, TOPOLOGIES, TOPOLOGY, TOPOLOGY_KINDS, main)
from optdec.methods import METHODS, Constant
from optdec.network import Topology

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_rows():
    """``{kind: {key: (default, domain)}}`` from README's problem-kind table."""
    lines = README.read_text().splitlines()
    start = lines.index("| problem kind | key | default | domain |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        kind, key, default, domain = (cell.strip() for cell in line.strip("|").split("|"))
        rows.setdefault(kind.strip("`"), {})[key.strip("`")] = default, domain
    return rows


def _default(field):
    return getattr(field, "default", None if field is FILE_OR_NULL else ...)


def _default_text(field):
    default = _default(field)
    return "required" if default is ... else f"`{json.dumps(default)}`"


def _domain_text(field):
    if isinstance(field, Constant):
        if field.low == -math.inf:
            return "any real"
        kind = "integer" if field.integer else "real"
        high = f" and <= {field.high:g}" if field.high < math.inf else ""
        return f"{kind} {'>' if field.strict else '>='} {field.low:g}{high}"
    return field  # the file and topology markers are their domains


def _topology_domains(key):
    """The domain of the inline topology field ``key`` in most kinds' records, and
    ``{kind: domain}`` of each kind whose record has another."""
    texts = {kind: _domain_text(TOPOLOGIES[kind][key]) for kind in TOPOLOGY_KINDS}
    common = max(texts.values(), key=list(texts.values()).count)
    return common, {kind: text for kind, text in texts.items() if text != common}


def test_readme_lists_every_field_of_the_problem_table():
    rows = _readme_rows()
    records = {kind: record.fields for kind, record in PROBLEMS.items()}
    records["inline topology"] = {"kind": ..., **TOPOLOGIES[TOPOLOGY_KINDS[0]]}
    assert list(rows) == list(records)
    for kind, fields in records.items():
        assert list(rows[kind]) == list(fields), kind
        for key, field in fields.items():
            default, domain = rows[kind][key]
            if field is ...:  # the topology kind
                assert default == "required" and domain == "one of " + ", ".join(
                    f"`{name}`" for name in TOPOLOGY_KINDS)
                continue
            # a default may be followed by what it is read as, a domain by a note
            assert re.split(r",| \(", default)[0] == _default_text(field), (kind, key)
            if kind == "inline topology":  # most kinds' domain, then "`kind`: domain" of others
                common, others = _topology_domains(key)
                assert re.split(r" \(", domain)[0] == common, key
                assert dict(re.findall(r"`(\w+)`: ([^,)]+)", domain)) == others, key
            else:
                assert re.split(r" \(", domain)[0] == _domain_text(field), (kind, key)


@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
def test_each_topology_record_takes_the_least_m_of_its_constructor(kind):
    low = TOPOLOGIES[kind]["m"].low
    p = (1.0, np.random.default_rng(0)) if kind == "erdos_renyi" else ()
    assert getattr(Topology, kind)(low, *p).m == low
    with pytest.raises(ValueError):
        getattr(Topology, kind)(low - 1, *p)


# ---------------------------------------------------------------------------
# refusals


def _valid(field):
    """A value inside ``field``'s domain; the file paths name files that do not exist."""
    if isinstance(field, Constant):
        value = max(field.low, 0) + 2
        return int(value) if field.integer else float(value)
    if field is TOPOLOGY:
        return {"kind": "ring", "m": 3}
    return str(Path(tempfile.gettempdir()) / "optdec-no-such-dir" / "input.csv")


def _outside(field: Constant):
    """Values outside the domain of ``field``."""
    values = [st.sampled_from(["1", "nan", True, False, [], {}, [[1.0]], math.inf, -math.inf])]
    if field.default is not None:
        values.append(st.none())
    if field.integer:
        values.append(st.floats(-1e6, 1e6).filter(lambda x: x != int(x)))
    if field.low > -math.inf:
        values.append(st.floats(max_value=field.low, exclude_max=not field.strict,
                                allow_nan=False, allow_infinity=False))
        if field.integer:
            values.append(st.integers(max_value=math.ceil(field.low) - 1))
    if field.high < math.inf:
        values.append(st.floats(min_value=field.high, exclude_min=True, allow_nan=False,
                                allow_infinity=False))
    return st.one_of(values)


def _optional(field):
    return _default(field) is not ...


def _method(kind):
    return next(name for name, record in METHODS.items() if kind in record.kinds)


@st.composite
def _problems(draw, kind):
    """A problem of ``kind`` with every required field valid and some optional ones."""
    problem = {"kind": kind}
    for key, field in PROBLEMS[kind].fields.items():
        if not _optional(field) or draw(st.booleans()):
            problem[key] = _valid(field)
    if "topology" in problem:
        problem["topology"]["kind"] = draw(st.sampled_from(TOPOLOGY_KINDS))
        if draw(st.booleans()):
            problem["topology"]["p"] = draw(st.sampled_from([1e-12, 0.5, 1.0]))
    return problem


def _refusal(problem):
    """``optdec run``'s exit code and stderr on ``problem``, which must not get past the checks."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            cli, "execute_run", side_effect=AssertionError("the config passed its checks")):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({"method": _method(problem["kind"]), "problem": problem,
                                    "N": 2}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


def _records(kind):
    """``(where, fields)`` of the records a problem of ``kind`` is checked against."""
    records = [("problem", PROBLEMS[kind].fields)]
    if "topology" in PROBLEMS[kind].fields:  # every topology kind's record has the same keys
        records.append(("topology", TOPOLOGIES[TOPOLOGY_KINDS[0]]))
    return records


NUMERIC = [(kind, where, key) for kind in PROBLEMS for where, fields in _records(kind)
           for key, field in fields.items() if isinstance(field, Constant)]
REQUIRED = [(kind, where, key) for kind in PROBLEMS for where, fields in _records(kind)
            for key, field in fields.items() if not _optional(field)]


@pytest.mark.parametrize("kind, where, key", NUMERIC)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_field_outside_its_domain_exits_2_naming_it(kind, where, key, data):
    problem = data.draw(_problems(kind), label="problem")
    target = problem if where == "problem" else problem["topology"]
    fields = PROBLEMS[kind].fields if where == "problem" else TOPOLOGIES[target["kind"]]
    target[key] = data.draw(_outside(fields[key]), label="value")
    code, err = _refusal(problem)
    assert code == 2 and err.startswith(f"config error: {where}.{key} must be "), err


@pytest.mark.parametrize("kind, where, key", REQUIRED)
def test_a_missing_required_field_exits_2_naming_it(kind, where, key):
    problem = {"kind": kind,
               **{name: _valid(field) for name, field in PROBLEMS[kind].fields.items()}}
    target = problem if where == "problem" else problem["topology"]
    del target[key]
    assert _refusal(problem) == (
        2, f"config error: {where} kind {target['kind']!r} requires {where}.{key}\n")


@pytest.mark.parametrize("kind", ["quadratic", "penalty", "consensus_quadratic"])
def test_a_cond_below_1_exits_2(tmp_path, capsys, kind):
    # "cond": 0.5 once ran, on a problem with L/mu = 2, and exited 0
    problem = {"kind": kind, "cond": 0.5, **({"topology": {"kind": "ring", "m": 3}}
                                             if kind == "consensus_quadratic" else {})}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": _method(kind), "problem": problem, "N": 2}))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: problem.cond must be finite and >= 1, got 0.5\n"
    assert not list(tmp_path.glob("*.trace.csv"))
