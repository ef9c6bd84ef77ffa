"""Every function under ``src/`` is run by a CLI command, or is listed here with its reason.

Runs every command once on every fixture, in JSON and in this process, under
``sys.setprofile``, and compares the functions never called with
``UNREACHED``.  A function a change stops calling must be deleted, moved to
``tests/`` or listed here with a reason; a listed function a command starts
calling must leave the list.
"""

import contextlib
import io
import pathlib
import sys
import types

from conftest import FIXTURES
from supercochain import cli
from supercochain.io import COMMANDS

# the package as imported, so that its path is the one its code objects carry
SRC = pathlib.Path(cli.__file__).parent

_README = "library API named in the README"
_VIEW = "a Fraction view named in the README"
_REPR = "repr of a library value"
_EQ = "== of a library value, named in the README"
_KEYS = "input validation: keys given to a constructor"
_DENSE = "input validation: a constructor from dense vectors of ints and Fractions"
_IMMUTABLE = "immutability of a library value"
_WRITER = "file writer scripts/regen_fixtures.py calls"

UNREACHED = {
    "cli._format_text": "text output; the guard runs every job in JSON",
    "cli.console_main": "process entry of python -m supercochain; the guard calls cli.main",
    "cochains.BlockCochain.__repr__": _REPR,
    "cochains.BlockCochain._check_key": _KEYS,
    "cochains.BlockCochain.eval": _README,
    "cochains.Cochain.__repr__": _REPR,
    "cochains.Cochain._check_key": _KEYS,
    "cochains.Cochain.eval": _README,
    "cochains._CoefficientMap.__eq__": _EQ,
    "cochains._CoefficientMap._value_at": "read by eval",
    "cochains._CoefficientMap.parity_parts": "the parity split; " + _README + " (parity() builds no part)",
    "cochains._require_normal_key": _KEYS,
    "cochains.circ": "the insertion product; " + _README + " (nr_bracket reads a self-bracket as one)",
    "crossed.ChComplex.bracket": "the paper's bracket [[f1, f2]]; ROADMAP items 4, 5 and 8",
    "crossed.ChComplex.coboundary": "ROADMAP items 4, 5 and 8",
    "crossed.derivation_space": _README + "; ROADMAP items 4 and 5",
    "deformation.linear_check": "the paper's linear deformations as 1-cocycles; " + _README,
    "deformation.triple_cocycle_deformations": "the paper's linear deformations as 1-cocycles; " + _README,
    "exact_linalg.Matrix.__eq__": _EQ,
    "exact_linalg.Matrix.__init__": _DENSE + "; assembly and products build through Matrix._from_ints",
    "exact_linalg.Matrix.__repr__": _REPR,
    "exact_linalg.Matrix.__setattr__": _IMMUTABLE,
    "exact_linalg.Matrix.entries": "read by the tracer (perfbench/traced_job.py _nnz)",
    "exact_linalg.kernel_basis": _README + "; ROADMAP items 2 and 4",
    "graded._multiset_count": "read by wedge_dim",
    "graded.normalize_tuple": _KEYS + ", and eval",
    "graded.wedge_dim": "ROADMAP item 14: the projected size before any work",
    "io.action_to_obj": _WRITER,
    "io.algebra_to_obj": _WRITER,
    "io.crossed_to_obj": _WRITER,
    "io.space_to_obj": _WRITER,
    "io.value_to_obj": _WRITER,
    "superalgebra.LinearMap.__repr__": _REPR,
    "superalgebra.LinearMap.shape": "read by the coefficient core's add, scale, == and parity split, " + _README,
    "superalgebra.LinearMap._check_key": _KEYS,
    "superalgebra.LinearMap.apply": _VIEW,
    "superalgebra.LinearMap.cols": _VIEW,
    "superalgebra.SuperAlgebra.__eq__": _EQ,
    "superalgebra.SuperAlgebra.__init__": _DENSE,
    "superalgebra.SuperAlgebra.__repr__": _REPR,
    "superalgebra.SuperAlgebra.bracket_basis": _VIEW,
    "superalgebra.SuperAlgebra.bracket_eval": _VIEW,
    "superalgebra.SuperAlgebra.sc": _VIEW,
    "superalgebra.abelian": "the paper's examples; " + _README,
    "superalgebra.gl": "the paper's examples; " + _README,
    "superalgebra.gl.<locals>.label": "read by gl",
    "superalgebra.gl.<locals>.side": "read by gl",
    "triple.ActionMap.__eq__": _EQ,
    "triple.ActionMap.__init__": _DENSE,
    "triple.ActionMap.__repr__": _REPR,
    "triple.ActionMap.apply": _VIEW,
    "triple.ActionMap.operator": _VIEW,
    "triple.ActionMap.table": _VIEW,
    "triple.ActionMap.value": _VIEW,
    "triple.ActionMap.zero": "the zero terms of a deformation given fewer terms than its order",
    "triple.BlockComplex.element": "read by derivation_space and triple_cocycle_deformations",
    "triple.LieSupActTriple.check": _README,
    "triple.adjoint_action": "the paper's adjoint triple; " + _README,
    "triple.semidirect": "the paper's semidirect product; " + _README,
    "util.Frozen.__delattr__": _IMMUTABLE,
    "util.Frozen.__hash__": "hash of an immutable record (util.Frozen, named in the README)",
    "util.Frozen.__init_subclass__": "runs at import, when a record class is defined",
    "util.Frozen.__repr__": _REPR,
    "util.Frozen.__setattr__": _IMMUTABLE,
    "util.sparse": _DENSE,
}

_INLINE = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def _site(code):
    """(module, first line, name): the same for a compiled and an imported code object."""
    return pathlib.Path(code.co_filename).stem, code.co_firstlineno, code.co_name


def defined_functions():
    """{site: ``module.qualname``} of every function, method and lambda under ``src/supercochain``."""
    out = {}

    def walk(code, qualname, in_function):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = f"{qualname}.<locals>.{const.co_name}" if in_function else f"{qualname}.{const.co_name}"
                # class bodies are not CO_OPTIMIZED; comprehensions run inside their function
                is_function = bool(const.co_flags & 0x1)
                if is_function and const.co_name not in _INLINE:
                    out[_site(const)] = name
                walk(const, name, is_function)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem, False)
    return out


def called_functions():
    """The sites of every ``src/`` function called by one run of each command on each fixture."""
    called = set()
    prefix = str(SRC)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            called.add(_site(frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for path in sorted(FIXTURES.glob("*.json")):
            for command in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main([command, str(path), "--format", "json"])
    finally:
        sys.setprofile(previous)
    return called


def test_every_unreached_function_is_listed_with_a_reason():
    defined = defined_functions()
    called = called_functions()
    unreached = {name for site, name in defined.items() if site not in called}
    assert all(UNREACHED.values())
    assert sorted(unreached - UNREACHED.keys()) == [], "unreached and not listed"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed but reached, or no longer defined"
