"""Fuzz the input boundary: arbitrary JSON in every section of a problem file.

Each example replaces one whole section, or one value nested inside it, with
an arbitrary JSON value and runs ``cli.main`` in process on a command that
reads that section.  Input the parser rejects must give exit 2 and a single
line on stderr; input it accepts must give a report (exit 0 or 1) and
nothing on stderr.  No input may escape as an exception (a traceback, exit 1)
or exit 3.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from supercochain import cli


def _base():
    doc = json.loads((FIXTURES / "aff11_adjoint.json").read_text(encoding="utf-8"))
    doc["algebra"] = json.loads((FIXTURES / "gl11.json").read_text(encoding="utf-8"))["algebra"]
    doc["deformation"]["coefficients"][0].update(
        pi=[], mu=[], rho=[{"g": "e", "h": "f", "value": [{"basis": "f", "coeff": "1/2"}]}]
    )
    doc["requested"] = ["check-triple"]
    return doc


BASE = _base()

# the commands that read each section
COMMANDS = {
    "algebra": ("check-algebra",),
    "g": ("check-triple",),
    "h": ("check-triple",),
    "action": ("check-triple",),
    "D": ("check-crossed",),
    "deformation": ("deform", "ch-deform"),
    "requested": ("check-algebra",),
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["e", "f", "E11", "1", "-1/2", "0", "1/0"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["left", "right", "value", "basis", "coeff", "g", "h", "order",
                         "even_basis", "odd_basis", "bracket", "coefficients", "pi", "rho",
                         "mu", "D"]) | st.text(max_size=4),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


def _paths(obj, prefix=()):
    """Every position inside a JSON value, the value itself included."""
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


PATHS = [(section,) + p for section in COMMANDS for p in _paths(BASE[section])]


def _replace(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(path=st.sampled_from(PATHS), value=json_values, data=st.data())
def test_arbitrary_section_values_exit_cleanly(tmp_path, capsys, path, value, data):
    doc = _replace(BASE, path, value)
    command = data.draw(st.sampled_from(COMMANDS[path[0]]))
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([command, str(p), "--format", "json"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert out == ""
    else:
        assert err == ""
        json.loads(out)
