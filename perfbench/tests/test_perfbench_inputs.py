"""Self-tests of the seeded input generator."""

import random
from fractions import Fraction

import inputs


def test_rescaling_is_deterministic_per_seed():
    obj = inputs.generated_inputs()["gl21_adjoint"]
    a = inputs.rescale(obj, random.Random("7:gl21_adjoint"))
    b = inputs.rescale(obj, random.Random("7:gl21_adjoint"))
    c = inputs.rescale(obj, random.Random("8:gl21_adjoint"))
    assert a == b
    assert a != c


def test_rescaling_keeps_labels_and_zero_pattern():
    obj = inputs.generated_inputs()["gl21_adjoint"]
    out = inputs.rescale(obj, random.Random("3:gl21_adjoint"))

    def pattern(entries, keys):
        return [(tuple(e[k] for k in keys), [v["basis"] for v in e["value"]]) for e in entries]

    assert pattern(out["g"]["bracket"], ("left", "right")) == pattern(obj["g"]["bracket"], ("left", "right"))
    assert pattern(out["action"], ("g", "h")) == pattern(obj["action"], ("g", "h"))
    assert pattern(out["D"], ("g",)) == pattern(obj["D"], ("g",))
    assert all(Fraction(v["coeff"]) != 0 for e in out["action"] for v in e["value"])


def test_bracket_coefficients_transform_as_an_isomorphism():
    # [c_i e_i, c_j e_j] = c_i c_j C^k_ij e_k = (c_i c_j / c_k) C^k_ij (c_k e_k)
    section = inputs.gl_section(1, 1)
    scale = {lab: Fraction(n + 2) for n, lab in enumerate(section["even_basis"] + section["odd_basis"])}
    out = inputs._scale_bracket(section["bracket"], scale)
    for before, after in zip(section["bracket"], out):
        for v0, v1 in zip(before["value"], after["value"]):
            factor = scale[before["left"]] * scale[before["right"]] / scale[v0["basis"]]
            assert Fraction(v1["coeff"]) == Fraction(v0["coeff"]) * factor


def test_gl_dimensions_and_parities():
    s = inputs.gl_section(2, 1)
    assert len(s["even_basis"]) == 5 and len(s["odd_basis"]) == 4
    assert "E12" in s["even_basis"] and "E13" in s["odd_basis"]
