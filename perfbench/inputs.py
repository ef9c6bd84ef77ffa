"""Seeded benchmark inputs, written as problem files the CLI reads.

Generated triples (gl(m,n) adjoint, the defining triple of gl(1,1), D = -id
and the linear deformations) are built here from the standard formulas, not
through the library, so a change to the library cannot change what the
benchmark feeds it.

The seed only draws a diagonal rescaling e_i -> c_i e_i of every basis of
every input, shipped fixtures included.  Basis vectors are homogeneous, so
the rescaling preserves parity and is an isomorphism of the whole structure:
structure constants, actions, crossed homomorphisms and deformation terms are
transformed to match, verdicts and cohomology tables cannot change, and
neither can the zero pattern of any differential.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))


def fmt(x: Fraction) -> str:
    return str(Fraction(x))


def _value(vec: dict) -> list:
    return [{"basis": b, "coeff": fmt(c)} for b, c in vec.items() if c != 0]


# ---------------------------------------------------------------------------
# generators


def gl_section(m: int, n: int) -> dict:
    """gl(m|n) on elementary matrices E_pq, even basis first.

    [E_pq, E_rs] = d_qr E_ps - (-1)^(|E_pq||E_rs|) d_sp E_rq.
    """
    d = m + n

    def side(p):
        return 0 if p < m else 1

    def par(p, q):
        return side(p) ^ side(q)

    def lab(p, q):
        return f"E{p + 1}{q + 1}"

    pairs = [(p, q) for p in range(d) for q in range(d)]
    even = [pq for pq in pairs if par(*pq) == 0]
    odd = [pq for pq in pairs if par(*pq) == 1]
    order = even + odd
    entries = []
    for i, (p, q) in enumerate(order):
        for j, (r, s) in enumerate(order):
            if i > j:
                continue
            vec = {}
            if q == r:
                vec[lab(p, s)] = vec.get(lab(p, s), Fraction(0)) + 1
            if s == p:
                sign = 1 if par(p, q) * par(r, s) else -1
                vec[lab(r, q)] = vec.get(lab(r, q), Fraction(0)) + sign
            if any(vec.values()):
                entries.append({"left": lab(p, q), "right": lab(r, s), "value": _value(vec)})
    return {
        "even_basis": [lab(*pq) for pq in even],
        "odd_basis": [lab(*pq) for pq in odd],
        "bracket": entries,
    }


def _bracket_table(section: dict) -> dict:
    """(left, right) -> {basis: coeff} for both orders, by super-skew-symmetry."""
    odd = set(section["odd_basis"])
    table = {}
    for ent in section["bracket"]:
        vec = {v["basis"]: Fraction(v["coeff"]) for v in ent["value"]}
        a, b = ent["left"], ent["right"]
        table[(a, b)] = vec
        if a != b:
            sign = 1 if (a in odd and b in odd) else -1
            table[(b, a)] = {k: sign * c for k, c in vec.items()}
    return table


def adjoint_action(section: dict) -> list:
    table = _bracket_table(section)
    labels = section["even_basis"] + section["odd_basis"]
    return [
        {"g": x, "h": u, "value": _value(table[(x, u)])}
        for x in labels
        for u in labels
        if (x, u) in table
    ]


def minus_identity(section: dict) -> list:
    labels = section["even_basis"] + section["odd_basis"]
    return [{"g": x, "value": [{"basis": x, "coeff": "-1"}]} for x in labels]


def adjoint_triple(m: int, n: int) -> dict:
    g = gl_section(m, n)
    return {"g": g, "h": g, "action": adjoint_action(g)}


def defining_triple(m: int, n: int) -> dict:
    """gl(m|n) acting on C^(m|n) by matrix multiplication: E_pq v_r = d_qr v_p."""
    d = m + n
    h = {
        "even_basis": [f"v{p + 1}" for p in range(m)],
        "odd_basis": [f"v{p + 1}" for p in range(m, d)],
        "bracket": [],
    }
    action = [
        {"g": f"E{p + 1}{q + 1}", "h": f"v{q + 1}", "value": [{"basis": f"v{p + 1}", "coeff": "1"}]}
        for p in range(d)
        for q in range(d)
    ]
    return {"g": gl_section(m, n), "h": h, "action": action}


def gl21_deformed() -> dict:
    """Adjoint gl(2|1) with D = -id and an exact linear deformation of both.

    The triple term (pi, rho, mu) at order 1 is the base itself: scaling every
    bracket and the action by (1 + t) keeps all axioms.  The crossed term is
    D_1(x) = str(x) E12: D + t D_1 is crossed at every t because id + D + t D_1
    = t str(.) E12 is a homomorphism into an abelian line.
    """
    obj = adjoint_triple(2, 1)
    g = obj["g"]
    supertrace = {"E11": 1, "E22": 1, "E33": -1}
    obj["D"] = minus_identity(g)
    obj["deformation"] = {
        "order": 2,
        "coefficients": [
            {
                "order": 1,
                "pi": g["bracket"],
                "rho": obj["action"],
                "mu": g["bracket"],
                "D": [
                    {"g": x, "value": [{"basis": "E12", "coeff": str(s)}]}
                    for x, s in supertrace.items()
                ],
            }
        ],
    }
    return obj


def generated_inputs() -> dict:
    gl11_adjoint = adjoint_triple(1, 1)
    gl11_adjoint["D"] = minus_identity(gl11_adjoint["g"])
    return {
        "gl11_defining": defining_triple(1, 1),
        "gl11_adjoint": gl11_adjoint,
        "gl21_adjoint": gl21_deformed(),
    }


# ---------------------------------------------------------------------------
# seeded rescaling


def _scaled_value(value, factor, target_scale):
    return [
        {"basis": v["basis"], "coeff": fmt(Fraction(v["coeff"]) * factor / target_scale[v["basis"]])}
        for v in value
    ]


def _scale_bracket(entries, s):
    return [
        {
            "left": e["left"],
            "right": e["right"],
            "value": _scaled_value(e["value"], s[e["left"]] * s[e["right"]], s),
        }
        for e in entries
    ]


def _scale_action(entries, a, b):
    return [
        {"g": e["g"], "h": e["h"], "value": _scaled_value(e["value"], a[e["g"]] * b[e["h"]], b)}
        for e in entries
    ]


def _scale_crossed(entries, a, b):
    return [{"g": e["g"], "value": _scaled_value(e["value"], a[e["g"]], b)} for e in entries]


def _draw(rng: random.Random, section: dict) -> dict:
    return {lab: rng.choice(SCALES) for lab in section["even_basis"] + section["odd_basis"]}


def rescale(obj: dict, rng: random.Random) -> dict:
    """Apply a random diagonal basis rescaling to every section of a problem."""
    out = dict(obj)
    if "algebra" in obj:
        s = _draw(rng, obj["algebra"])
        out["algebra"] = dict(obj["algebra"], bracket=_scale_bracket(obj["algebra"]["bracket"], s))
    if "g" not in obj:
        return out
    a, b = _draw(rng, obj["g"]), _draw(rng, obj["h"])
    out["g"] = dict(obj["g"], bracket=_scale_bracket(obj["g"]["bracket"], a))
    out["h"] = dict(obj["h"], bracket=_scale_bracket(obj["h"]["bracket"], b))
    if "action" in obj:
        out["action"] = _scale_action(obj["action"], a, b)
    if "D" in obj:
        out["D"] = _scale_crossed(obj["D"], a, b)
    if "deformation" in obj:
        coeffs = []
        for c in obj["deformation"]["coefficients"]:
            c = dict(c)
            if "pi" in c:
                c["pi"] = _scale_bracket(c["pi"], a)
            if "mu" in c:
                c["mu"] = _scale_bracket(c["mu"], b)
            if "rho" in c:
                c["rho"] = _scale_action(c["rho"], a, b)
            if "D" in c:
                c["D"] = _scale_crossed(c["D"], a, b)
            coeffs.append(c)
        out["deformation"] = dict(obj["deformation"], coefficients=coeffs)
    return out


def write_inputs(root: Path, out_dir: Path, seed: int, names) -> dict:
    """Write the named inputs, rescaled by ``seed``; returns name -> relative path."""
    generated = generated_inputs()
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        if name in generated:
            obj = generated[name]
        else:
            obj = json.loads((root / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
        obj = rescale(obj, random.Random(f"{seed}:{name}"))
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        paths[name] = path.relative_to(root).as_posix()
    return paths
