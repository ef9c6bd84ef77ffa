"""Value semantics of the immutable record classes.

Each case builds one class from keyword fields; ``alternatives`` gives, for
every field, another value that is valid on its own and jointly.  Equal fields must give equal objects with
equal hashes, a change in any one field must give an unequal object, and
fields never change after construction.
"""

from fractions import Fraction as F

import pytest

from supercochain.cochains import BlockCochain
from supercochain.crossed import CrossedHom, _require_verified
from supercochain.deformation import CrossedHomDeformation, InfinitesimalReport, TripleDeformation
from supercochain.errors import DimensionMismatch, ShapeMismatch, ValidationError
from supercochain.graded import GradedSpace
from supercochain.superalgebra import CheckReport, Failure, LinearMap, SuperAlgebra
from supercochain.triple import ActionMap, LieSupActTriple, McResidual
from supercochain.util import Frozen

from helpers import adjoint_triple, aff11, solvable_triple


def space():
    return GradedSpace(("e",), ("f",))


def other_space():
    return GradedSpace(("x",), ("y",))


def triple():
    return adjoint_triple(aff11())


def abelian_triple():
    """The adjoint triple's spaces with zero brackets and zero action."""
    s = space()
    return LieSupActTriple(SuperAlgebra(s, {}), SuperAlgebra(s, {}), ActionMap.zero(s, s))


def diag(a, d):
    """e -> a e, f -> d f, a degree-0 map of the (1|1) space."""
    return LinearMap(space(), space(), ((F(a), F(0)), (F(0), F(d))))


def block(g_arity, h_arity, side, coeffs=None):
    return BlockCochain(space(), space(), g_arity, h_arity, side, coeffs or {})


def crossed():
    # a (1 + d) = 0 makes e -> a e, f -> d f crossed on the adjoint triple
    return CrossedHom(triple(), diag(0, 1))


# name -> (class, fields, alternatives); both builders make fresh objects
CASES = {
    "GradedSpace": (
        GradedSpace,
        lambda: dict(even_basis=("e",), odd_basis=("f",)),
        lambda: dict(even_basis=("x",), odd_basis=("g",)),
    ),
    "Failure": (
        Failure,
        lambda: dict(axiom="jacobi", where=("e", "f"), lhs=(F(1),), rhs=(F(0),)),
        lambda: dict(axiom="skew", where=("f", "e"), lhs=(F(2),), rhs=(F(1),)),
    ),
    "CheckReport": (
        CheckReport,
        lambda: dict(name="triple", failures=()),
        lambda: dict(name="crossed", failures=(Failure("jacobi", (), (), ()),)),
    ),
    "LieSupActTriple": (
        LieSupActTriple,
        lambda: dict(g=triple().g, h=triple().h, rho=triple().rho),
        lambda: dict(
            g=abelian_triple().g, h=abelian_triple().h, rho=ActionMap.zero(space(), space())
        ),
    ),
    "McResidual": (
        McResidual,
        lambda: dict(
            ggg=block(3, 0, "g"), ggh=block(2, 1, "h"), ghh=block(1, 2, "h"), hhh=block(0, 3, "h")
        ),
        lambda: dict(
            ggg=block(3, 0, "h"),
            ggh=block(2, 1, "g"),
            ghh=block(1, 2, "h", {((0,), (1, 1)): (F(1), F(0))}),
            hhh=block(0, 3, "h", {((), (1, 1, 1)): (F(1), F(0))}),
        ),
    ),
    "CrossedHom": (
        CrossedHom,
        lambda: dict(triple=triple(), linmap=diag(0, 1), verified=None),
        lambda: dict(triple=abelian_triple(), linmap=diag(1, -1), verified=True),
    ),
    "TripleDeformation": (
        TripleDeformation,
        lambda: dict(triple=triple(), order=1, pis=(), rhos=(), mus=()),
        lambda: dict(
            triple=abelian_triple(),
            order=2,
            pis=(triple().g.as_cochain(),),
            rhos=(triple().rho,),
            mus=(triple().h.as_cochain(),),
        ),
    ),
    "InfinitesimalReport": (
        InfinitesimalReport,
        lambda: dict(order=1, cochain=(block(2, 0, "g"),), is_cocycle=True),
        lambda: dict(order=None, cochain=(block(2, 0, "h"),), is_cocycle=False),
    ),
    "CrossedHomDeformation": (
        CrossedHomDeformation,
        lambda: dict(crossed=crossed(), order=1, maps=(diag(0, 1), diag(0, 0))),
        lambda: dict(
            crossed=CrossedHom(triple(), diag(0, -1)), order=2, maps=(diag(0, 1), diag(1, -1))
        ),
    ),
}

# the other classes hold an algebra, a cochain or a map, which defines == but no hash
HASHABLE = {GradedSpace, Failure, CheckReport}

PARAMS = pytest.mark.parametrize("name", sorted(CASES))

# a LinearMap is built from keyword fields but keeps int columns, not those fields, so it
# joins only the checks of equality and repr
WITH_MAP = dict(
    CASES,
    LinearMap=(
        LinearMap,
        lambda: dict(source=space(), target=space(), cols=((F(1), F(0)), (F(0), F(1)))),
        lambda: dict(source=other_space(), target=other_space(), cols=((F(0), F(0)), (F(0), F(1)))),
    ),
)

WITH_MAP_PARAMS = pytest.mark.parametrize("name", sorted(WITH_MAP))


@PARAMS
def test_equal_fields_give_equal_objects(name):
    cls, fields, _ = CASES[name]
    a, b = cls(**fields()), cls(**fields())
    assert a == b and not a != b
    assert a == cls(*fields().values())
    if cls in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@PARAMS
def test_keyword_construction_stores_each_field(name):
    cls, fields, _ = CASES[name]
    given = fields()
    obj = cls(**given)
    assert tuple(given) == cls.__slots__
    for field, value in given.items():
        assert getattr(obj, field) == value


@WITH_MAP_PARAMS
def test_any_one_field_changed_gives_unequal_object(name):
    cls, fields, alternatives = WITH_MAP[name]
    base = cls(**fields())
    for field, value in alternatives().items():
        other = cls(**dict(fields(), **{field: value}))
        assert other != base and base != other, field
    assert cls(**alternatives()) != base


@PARAMS
def test_same_fields_on_another_class_are_unequal(name):
    cls, fields, _ = CASES[name]
    twin = type("Twin", (Frozen,), {"__slots__": cls.__slots__})
    given = fields()
    a, b = cls(**given), twin(*given.values())
    assert a != b and b != a
    assert a != tuple(given.values())
    assert repr(b) == "Twin" + repr(a)[len(name):]


@PARAMS
def test_fields_cannot_be_assigned(name):
    cls, fields, alternatives = CASES[name]
    obj = cls(**fields())
    for field, value in alternatives().items():
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == cls(**fields())


@PARAMS
def test_repr_names_the_fields(name):
    cls, fields, _ = CASES[name]
    given = fields()
    text = repr(cls(**given))
    assert text.startswith(f"{name}(")
    for field, value in given.items():
        assert f"{field}={value!r}" in text


@WITH_MAP_PARAMS
def test_equal_objects_built_separately_have_equal_reprs(name):
    cls, fields, _ = WITH_MAP[name]
    text = repr(cls(**fields()))
    assert text == repr(cls(**fields()))
    assert "object at" not in text


def test_action_map_repr_gives_dims_and_nonzero_entries():
    assert repr(ActionMap.zero(space(), other_space())) == "ActionMap(dims=(1|1)->(1|1), entries=0)"
    assert repr(triple().rho) == "ActionMap(dims=(1|1)->(1|1), entries=2)"


def test_graded_space_normalises_and_validates():
    s = GradedSpace(["a", "b"], iter(["c"]))
    assert s.even_basis == ("a", "b") and s.odd_basis == ("c",)
    assert s == GradedSpace(("a", "b"), ("c",))
    with pytest.raises(ValidationError):
        GradedSpace(("a",), ("a",))


def test_linear_map_normalises_and_validates():
    m = LinearMap(space(), space(), [[1, 0], [F(1, 2), 0]])
    assert m.cols == ((F(1), F(0)), (F(1, 2), F(0)))
    assert all(type(x) is F for col in m.cols for x in col)
    with pytest.raises(ValidationError):
        LinearMap(space(), space(), [[1, 0], ["1/2", 0]])
    with pytest.raises(DimensionMismatch):
        LinearMap(space(), space(), [[1, 0]])
    with pytest.raises(DimensionMismatch):
        LinearMap(space(), space(), [[1], [0]])


def test_triple_rejects_mismatched_action():
    t = triple()
    with pytest.raises(ShapeMismatch):
        LieSupActTriple(t.g, t.h, ActionMap.zero(other_space(), space()))
    with pytest.raises(ShapeMismatch):
        LieSupActTriple(g=t.g, h=t.h, rho=ActionMap.zero(space(), other_space()))


def test_crossed_hom_rejects_wrong_shape_and_odd_maps():
    t = solvable_triple()
    backwards = LinearMap(t.h.space, t.g.space, ((F(1),),))
    with pytest.raises(ShapeMismatch):
        CrossedHom(t, backwards)
    odd = LinearMap(space(), space(), ((F(0), F(1)), (F(0), F(0))))
    with pytest.raises(ValidationError):
        CrossedHom(triple(), odd)
    with pytest.raises(ValidationError):
        CrossedHom(triple=triple(), linmap=odd, verified=True)


def test_require_verified_returns_a_new_object_only_when_unchecked():
    D = crossed()
    checked = _require_verified(D)
    assert checked is not D and D.verified is None and checked.verified is True
    assert _require_verified(checked) is checked
    with pytest.raises(ValidationError):
        _require_verified(CrossedHom(triple(), diag(1, 1)))
