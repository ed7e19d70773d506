"""The frozen-record contract of pathreg's value classes (``pathreg._base``):
construction, equality and hash by value, the dataclass repr, no
assignment, ``replace`` and ``fields``."""

from fractions import Fraction

import numpy as np
import pytest

from pathreg import dsl, kernels, regularity, sampling, specfun, structure, verify
from pathreg._base import MISSING, field, fields, record, replace
from pathreg.kernels import ParameterError


def _instances():
    """One instance of each record class, new on every call."""
    k = kernels
    reg = regularity.Regularity(Fraction(5, 2), True)
    report = regularity.RegularityReport((reg,), 2, ("matern leaf: order 5/2, sharp",))
    fit = verify.ExponentFit(1.0, 0.5, 0.99, (0.1, 0.05), 0.01)
    grid = sampling.Grid((sampling.Axis(0.0, 1.0, 3),))
    return [
        k.StructureClass(), k.General(), k.Stationary(), k.Isotropic(), k.Kernel(), k.Leaf(),
        k.Matern(1.5), k.Wendland(1, 0), k.SquaredExponential(), k.RationalQuadratic(1.0),
        k.Periodic(), k.Wiener(), k.Linear(), k.Polynomial(2), k.Feature("trig", 2),
        k.Conic((k.SquaredExponential(), k.Periodic()), (1.0, 2.0)),
        k.Product((k.Matern(0.5), k.Periodic())),
        k.TensorProduct((k.Linear(), k.Wiener())),
        k.Affine(2.0, 0.5), k.AbsPower(0.5), k.Warp(k.Wiener(), k.Affine(2.0, 0.5)),
        dsl._Token("name", "matern", 0), reg, report, specfun.PiecewisePolynomial((1, 2)),
        structure.EstimateResult(1.5, None, fit, 1), verify.VerifyConfig(), fit,
        verify.VerifyReport(1, fit, report, "pass"), sampling.Axis(0.0, 1.0, 3), grid,
        sampling.PathSamples(grid, _DRAWS, "wiener()", 1, 0.0),
    ]


# one array for every PathSamples: equal fields are then the same object
_DRAWS = np.zeros((2, 3))
# an abstract base, whose dimension check needs children
_ABSTRACT = {kernels._Pointwise}
# holds an array, which has no hash
_UNHASHABLE = {sampling.PathSamples}


def test_every_record_class_has_an_instance():
    modules = (dsl, kernels, regularity, sampling, specfun, structure, verify)
    records = {
        cls for module in modules for cls in vars(module).values()
        if isinstance(cls, type) and "__record_fields__" in vars(cls)
    }
    assert len(records) == 33
    assert {type(x) for x in _instances()} | _ABSTRACT == records


def test_repr_is_the_dataclass_repr():
    assert repr(kernels.General()) == "General()"
    assert repr(kernels.Matern(nu=1.5)) == "Matern(nu=1.5, lengthscale=1.0, input_dim=1)"
    assert repr(verify.VerifyConfig()) == "VerifyConfig(tol=0.15, max_order=3)"
    assert repr(dsl._Token("name", "matern", 0)) == "_Token(kind='name', text='matern', pos=0)"
    warp = kernels.Warp(kernels.Wiener(), kernels.Affine(2, 0.5))
    assert repr(warp) == "Warp(child=Wiener(), family=Affine(a=2.0, b=0.5))"


def test_equality_and_hash_by_value():
    for a, b in zip(_instances(), _instances()):
        assert a is not b and a == b and not a != b, a
        if type(a) not in _UNHASHABLE:
            assert hash(a) == hash(b), a
    assert kernels.Matern(1.5) != kernels.Matern(2.5)
    assert len({kernels.Matern(1.5), kernels.Matern(1.5), kernels.Matern(2.5)}) == 2


def test_no_equality_across_classes():
    instances = _instances()
    for i, a in enumerate(instances):
        for b in instances[i + 1:]:
            assert a != b and not a == b, (a, b)
    # a subclass with the same (no) fields is another value
    assert kernels.Stationary() != kernels.Isotropic()


def test_assignment_raises():
    for x in _instances():
        for name in [f.name for f in fields(x)] + ["other"]:
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_replace_reruns_the_checks():
    assert replace(verify.VerifyConfig(), tol=0.2) == verify.VerifyConfig(tol=0.2, max_order=3)
    with pytest.raises(ParameterError):
        replace(verify.VerifyConfig(), tol=-1)
    with pytest.raises(TypeError):
        replace(verify.VerifyConfig(), bogus=1)


def test_init_binds_as_a_written_init():
    assert kernels.Matern(1.5, input_dim=2) == kernels.Matern(nu=1.5, lengthscale=1.0, input_dim=2)
    assert kernels.Matern.__init__.__qualname__ == "Matern.__init__"
    with pytest.raises(TypeError, match=r"__init__\(\) missing 1 required positional argument: 'nu'"):
        kernels.Matern()
    with pytest.raises(TypeError, match="unexpected keyword argument 'dim'"):
        kernels.Matern(1.5, dim=2)
    with pytest.raises(TypeError):
        kernels.Matern(1.5, 1.0, 1, 4)


def test_fields():
    assert [(f.name, f.type, f.default, dict(f.metadata)) for f in fields(kernels.Matern)] == [
        ("nu", "float", MISSING, {}),
        ("lengthscale", "float", 1.0, {}),
        ("input_dim", "int", 1, {"dsl": "dim"}),
    ]
    assert fields(kernels.Matern(1.5)) == fields(kernels.Matern)
    # ClassVar annotations are no fields, and a default is a class attribute
    assert fields(kernels.Leaf) == ()
    assert kernels.Matern.lengthscale == 1.0 and "n" not in vars(kernels.Wendland)


def test_base_fields_come_first():
    @record
    class Base:
        x: int
        y: int = 2

    @record
    class Child(Base):
        z: int = field(default=3, metadata={"note": "z"})

    assert [f.name for f in fields(Child)] == ["x", "y", "z"]
    assert repr(Child(1)) == "test_base_fields_come_first.<locals>.Child(x=1, y=2, z=3)"
    assert Child(1) != Base(1)
    with pytest.raises(TypeError):
        @record
        class Bad(Base):
            w: int


def test_records_of_many_fields():
    @record
    class Base:
        a: int
        b: int
        c: int = 3

    @record
    class Wide(Base):
        d: int = 4
        e: int = 5
        f: int = 6
        g: int = 7
        h: int = 8
        i: int = field(default=9, metadata={"note": "last"})

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("a must be >= 0")

    names = [f.name for f in fields(Wide)]
    assert names == ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
    by_position = Wide(*range(1, 10))
    assert [getattr(by_position, n) for n in names] == list(range(1, 10))
    by_name = Wide(b=2, a=1, i=9, h=8, g=7, f=6, e=5, d=4, c=3)
    assert by_name == by_position and hash(by_name) == hash(by_position)
    assert Wide(1, 2) == by_position and Wide(1, 2, i=10) != by_position
    assert Wide(1, 2) != Base(1, 2) and Base(1, 2) != Wide(1, 2)
    assert repr(Wide(1, 2)) == (
        "test_records_of_many_fields.<locals>.Wide(a=1, b=2, c=3, d=4, e=5, f=6, g=7, h=8, i=9)"
    )
    assert Wide.__init__.__qualname__.endswith("Wide.__init__")
    with pytest.raises(TypeError, match=r"__init__\(\) missing 1 required positional argument: 'b'"):
        Wide(1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'j'"):
        Wide(1, 2, j=10)
    with pytest.raises(TypeError):
        Wide(*range(10))
    with pytest.raises(ValueError, match="a must be >= 0"):
        Wide(-1, 2)
    changed = replace(by_position, h=80)
    assert changed.h == 80 and changed.i == 9 and changed != by_position
    with pytest.raises(ValueError, match="a must be >= 0"):
        replace(by_position, a=-1)
    with pytest.raises(AttributeError):
        by_position.i = 0
