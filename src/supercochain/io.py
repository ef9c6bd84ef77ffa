"""Problem-file parsing and report serialization.

One JSON file can carry several sections; each command picks the sections it
needs.  Rationals are strings "p" or "p/q" everywhere.  Section shapes:

  "algebra" / "g" / "h":
      {"even_basis": [...], "odd_basis": [...],
       "bracket": [{"left": label, "right": label,
                    "value": [{"basis": label, "coeff": "p/q"}]}]}
  "action":  [{"g": label, "h": label, "value": [...]}]
  "D":       [{"g": label, "value": [...]}]
  "deformation":
      {"order": N,
       "coefficients": [{"order": k, "pi": [bracket entries],
                         "rho": [action entries], "mu": [bracket entries],
                         "D": [D entries]}]}
  "requested": [command names]                       (validated, informative)

Structural problems raise ParseError (unreadable or malformed JSON, wrong
types) or ValidationError (unknown labels, duplicate entries, parity
violations in brackets and actions, zero denominators); both map to CLI exit
code 2.
"""

from __future__ import annotations

import json

from .deformation import check_order
from .errors import ParseError, ValidationError
from .exact_linalg import format_scalar, parse_scalar
from .graded import GradedSpace
from .superalgebra import LinearMap, SuperAlgebra
from .triple import ActionMap
from .util import scaled_rows

COMMANDS = (
    "check-algebra",
    "check-triple",
    "check-crossed",
    "cohomology",
    "ch-cohomology",
    "deform",
    "ch-deform",
)


class RawDeformation:
    """Per-order entry lists, k -> list: bracket entries for ``pi`` and ``mu``,
    action entries for ``rho``, D entries for ``d``."""

    __slots__ = ("order", "pi", "rho", "mu", "d")

    def __init__(self, order: int, pi: dict, rho: dict, mu: dict, d: dict):
        self.order, self.pi, self.rho, self.mu, self.d = order, pi, rho, mu, d


class ProblemFile:
    """Validated sections of one input file."""

    __slots__ = ("algebra", "g", "h", "action", "crossed", "deformation", "requested")

    def __init__(self, algebra: SuperAlgebra = None, g: SuperAlgebra = None, h: SuperAlgebra = None,
                 action: ActionMap = None, crossed: LinearMap = None,
                 deformation: RawDeformation = None, requested: tuple = ()):
        self.algebra, self.g, self.h, self.action = algebra, g, h, action
        self.crossed, self.deformation, self.requested = crossed, deformation, requested

    def algebras(self):
        out = []
        for name in ("algebra", "g", "h"):
            alg = getattr(self, name)
            if alg is not None:
                out.append((name, alg))
        return out

    def require(self, *names):
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValidationError(f"file is missing required section(s): {', '.join(missing)}")


def _expect(cond, message):
    if not cond:
        raise ParseError(message)


def _parse_value(value, space: GradedSpace, where: str):
    """{basis position: Fraction} of one value list."""
    _expect(isinstance(value, list), f"{where}: value must be a list")
    vec = {}
    for item in value:
        _expect(isinstance(item, dict), f"{where}: value items must be objects")
        _expect("basis" in item and "coeff" in item, f"{where}: value item needs basis and coeff")
        k = space.index(item["basis"])
        if k in vec:
            raise ValidationError(f"{where}: duplicate basis label {item['basis']!r}")
        vec[k] = parse_scalar(item["coeff"])
    return vec


def _parse_space(obj, section: str) -> GradedSpace:
    _expect(isinstance(obj, dict), f"section {section!r} must be an object")
    even = obj.get("even_basis", [])
    odd = obj.get("odd_basis", [])
    _expect(isinstance(even, list) and isinstance(odd, list), f"{section}: basis lists must be lists")
    for lab in list(even) + list(odd):
        _expect(isinstance(lab, str) and lab, f"{section}: basis labels must be nonempty strings")
    return GradedSpace(tuple(even), tuple(odd))


def _parse_bracket(entries, space: GradedSpace, section: str) -> SuperAlgebra:
    _expect(isinstance(entries, list), f"{section}: bracket must be a list")
    sc = {}
    for ent in entries:
        _expect(isinstance(ent, dict), f"{section}: bracket entries must be objects")
        _expect(
            "left" in ent and "right" in ent and "value" in ent,
            f"{section}: bracket entry needs left, right, value",
        )
        i = space.index(ent["left"])
        j = space.index(ent["right"])
        vec = _parse_value(ent["value"], space, f"{section}.bracket")
        if i > j:
            # store the i <= j representative via super-skew-symmetry
            i, j = j, i
            if (space.parity(i) * space.parity(j)) % 2 == 0:
                vec = {k: -x for k, x in vec.items()}
        if (i, j) in sc:
            raise ValidationError(
                f"{section}: duplicate bracket entry for ({ent['left']},{ent['right']})"
            )
        sc[(i, j)] = vec
    return SuperAlgebra._from_ints(space, *scaled_rows(sc))


def _parse_algebra(obj, section: str) -> SuperAlgebra:
    space = _parse_space(obj, section)
    return _parse_bracket(obj.get("bracket", []), space, section)


def _parse_action(entries, g: SuperAlgebra, h: SuperAlgebra) -> ActionMap:
    _expect(isinstance(entries, list), "action: must be a list")
    table = {}
    for ent in entries:
        _expect(isinstance(ent, dict), "action: entries must be objects")
        _expect("g" in ent and "h" in ent and "value" in ent, "action: entry needs g, h, value")
        i = g.space.index(ent["g"])
        j = h.space.index(ent["h"])
        if (i, j) in table:
            raise ValidationError(f"action: duplicate entry for ({ent['g']},{ent['h']})")
        vec = _parse_value(ent["value"], h.space, "action")
        want = (g.space.parity(i) + h.space.parity(j)) % 2
        wrong = [k for k, x in vec.items() if x != 0 and h.space.parity(k) != want]
        if wrong:
            raise ValidationError(
                f"action of {ent['g']} on {ent['h']} has a component on "
                f"{h.space.labels[min(wrong)]} of the wrong parity"
            )
        table[(i, j)] = vec
    return ActionMap._from_ints(g.space, h.space, *scaled_rows(table))


def _parse_crossed(entries, g: SuperAlgebra, h: SuperAlgebra) -> LinearMap:
    _expect(isinstance(entries, list), "D: must be a list")
    cols = {}
    for ent in entries:
        _expect(isinstance(ent, dict), "D: entries must be objects")
        _expect("g" in ent and "value" in ent, "D: entry needs g and value")
        i = g.space.index(ent["g"])
        if i in cols:
            raise ValidationError(f"D: duplicate entry for {ent['g']!r}")
        cols[i] = _parse_value(ent["value"], h.space, "D")
    return LinearMap._from_ints((g.space, h.space), *scaled_rows(cols))


def _is_order(value) -> bool:
    """An integer >= 1; JSON true/false are bools, which ``int`` would admit."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _parse_deformation(obj) -> RawDeformation:
    _expect(isinstance(obj, dict), "deformation: must be an object")
    order = obj.get("order")
    _expect(_is_order(order), "deformation: order must be an integer >= 1")
    check_order(order)
    coeffs = obj.get("coefficients", [])
    _expect(isinstance(coeffs, list), "deformation: coefficients must be a list")
    raw = RawDeformation(order, {}, {}, {}, {})
    for item in coeffs:
        _expect(isinstance(item, dict), "deformation: coefficient blocks must be objects")
        k = item.get("order")
        _expect(_is_order(k), "deformation: coefficient order must be an integer >= 1")
        _expect(k <= order, f"deformation: coefficient block of order {k} exceeds the order {order}")
        if k in raw.pi or k in raw.rho or k in raw.mu or k in raw.d:
            raise ValidationError(f"deformation: duplicate coefficient block for order {k}")
        for key, store in (("pi", raw.pi), ("rho", raw.rho), ("mu", raw.mu), ("D", raw.d)):
            if key in item:
                store[k] = item[key]
    return raw


def parse(path) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (bad byte at offset {exc.start})") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        # int() refuses literals longer than the interpreter's digit limit
        raise ParseError(f"{path}: a number literal exceeds the integer digit limit") from exc
    return parse_obj(data)


def parse_obj(data) -> ProblemFile:
    _expect(isinstance(data, dict), "top level must be an object")
    known = {"algebra", "g", "h", "action", "D", "deformation", "requested"}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown section(s): {', '.join(sorted(unknown))}")
    pf = ProblemFile()
    if "algebra" in data:
        pf.algebra = _parse_algebra(data["algebra"], "algebra")
    if "g" in data:
        pf.g = _parse_algebra(data["g"], "g")
    if "h" in data:
        pf.h = _parse_algebra(data["h"], "h")
    if "action" in data:
        pf.require("g", "h")
        pf.action = _parse_action(data["action"], pf.g, pf.h)
    if "D" in data:
        pf.require("g", "h")
        pf.crossed = _parse_crossed(data["D"], pf.g, pf.h)
    if "deformation" in data:
        pf.deformation = _parse_deformation(data["deformation"])
    if "requested" in data:
        req = data["requested"]
        _expect(isinstance(req, list), "requested: must be a list")
        for cmd in req:
            if cmd not in COMMANDS:
                raise ValidationError(f"requested: unknown command {cmd!r}")
        pf.requested = tuple(req)
    return pf


def deformation_terms(pf: ProblemFile):
    """Materialize the triple-deformation coefficient lists against g, h."""
    raw = pf.deformation
    g, h = pf.g, pf.h
    pis, rhos, mus = [], [], []
    for k in range(1, raw.order + 1):
        pis.append(_parse_bracket(raw.pi.get(k, []), g.space, f"deformation.pi[{k}]").as_cochain())
        mus.append(_parse_bracket(raw.mu.get(k, []), h.space, f"deformation.mu[{k}]").as_cochain())
        rhos.append(_parse_action(raw.rho.get(k, []), g, h))
    return pis, rhos, mus


def crossed_deformation_terms(pf: ProblemFile):
    raw = pf.deformation
    return [
        _parse_crossed(raw.d.get(k, []), pf.g, pf.h) for k in range(1, raw.order + 1)
    ]


# ---------------------------------------------------------------------------
# serialization back out


def space_to_obj(space: GradedSpace):
    return {"even_basis": list(space.even_basis), "odd_basis": list(space.odd_basis)}


def value_to_obj(vec, space: GradedSpace):
    return [
        {"basis": space.labels[k], "coeff": format_scalar(x)}
        for k, x in enumerate(vec)
        if x != 0
    ]


def algebra_to_obj(A: SuperAlgebra):
    obj = space_to_obj(A.space)
    entries = []
    sc = A.sc
    for (i, j) in sorted(sc):
        entries.append(
            {
                "left": A.space.labels[i],
                "right": A.space.labels[j],
                "value": value_to_obj(sc[(i, j)], A.space),
            }
        )
    obj["bracket"] = entries
    return obj


def action_to_obj(rho: ActionMap):
    out = []
    for i in range(rho.g_space.dim):
        for j in range(rho.h_space.dim):
            vec = rho.value(i, j)
            if any(x != 0 for x in vec):
                out.append(
                    {
                        "g": rho.g_space.labels[i],
                        "h": rho.h_space.labels[j],
                        "value": value_to_obj(vec, rho.h_space),
                    }
                )
    return out


def crossed_to_obj(D: LinearMap):
    labels = D.source.labels
    return [{"g": labels[i], "value": value_to_obj(col, D.target)} for i, col in sorted(D.coeffs.items())]


def report_to_json(report_dict) -> str:
    """Canonical byte form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report_dict, sort_keys=True, indent=2) + "\n"
