"""Value semantics of ldga's record classes.

Each class was a dataclass; these tests pin what that gave: equality with a
same-field copy and not with another class holding equal fields, hashes
that agree where the class was hashable, the ``Name(field=value, ...)``
repr, assignment refused on frozen classes, and defaults that no two
instances share.

Three former records duplicated another and are gone: a crossing of a
resolved front is a ``Generator``, a Poincare polynomial a ``Laurent`` and
a filling profile a homological ``GradedModule``.  Their cases, under the
old names, build those values through ``resolve``, ``poincare`` and
``seidel_profile``, so the values in those roles keep the same semantics.
"""

import copy
import pickle

import pytest

from ldga._record import Record
from ldga.algebra import DGA, GF, ZZ, Element, Generator, Laurent
from ldga.augment import Augmentation, PolySystem
from ldga.diagram import (
    LCUSP,
    RCUSP,
    FrontDiagram,
    FrontEvent,
    GridDiagram,
    ProjectionDiagram,
    resolve,
)
from ldga.linhom import COHOMOLOGICAL, GradedModule, LinearizedComplex, SmithForm, poincare
from ldga.obstruct import Certification, ObstructionVerdict, seidel_profile
from ldga.spin import SpinStage

F2 = GF(2)
FRONT = FrontDiagram([(LCUSP, 0), (RCUSP, 0)])

# (factory, repr as dataclasses printed it, frozen, hashable)
CASES = {
    "Laurent": (
        lambda: Laurent(((0, 1), (2, -3))), "Laurent(terms=((0, 1), (2, -3)))", True, True),
    "Element": (
        lambda: Element(F2, ((("a",), 1),)), "Element(ring=F2, terms=((('a',), 1),))", True, True),
    "Generator": (
        lambda: Generator("a", 0), "Generator(name='a', degree=0)", True, True),
    "DGA": (
        lambda: DGA(ZZ, (Generator("x", 1), Generator("y", 0)),
                    {"x": Element(ZZ, ((("y",), 2),))}),
        "DGA(ring=Z, generators=(Generator(name='x', degree=1), Generator(name='y', "
        "degree=0)), differential={'x': Element(ring=Z, terms=((('y',), 2),))})",
        True, False),  # frozen, but its differential is a dict
    "GridDiagram": (
        lambda: GridDiagram(2, (0, 1), (1, 0)), "GridDiagram(size=2, X=(0, 1), O=(1, 0))",
        True, True),
    "FrontEvent": (
        lambda: FrontEvent("cross", 1),
        "FrontEvent(kind='cross', level=1, upper_arc=-1, lower_arc=-1)", True, True),
    "ProjectionDiagram": (
        lambda: ProjectionDiagram(FRONT, (Generator("e1", 1),)),
        f"ProjectionDiagram(front={FRONT!r}, crossings=(Generator(name='e1', degree=1),))",
        True, True),
    "SmithForm": (
        lambda: SmithForm([[2]], [[1]], [[1]], [2]),
        "SmithForm(d=[[2]], u=[[1]], v=[[1]], diagonal=[2])", False, False),
    "LinearizedComplex": (
        lambda: LinearizedComplex(F2, {0: ("a",), 1: ("b",)}, {1: [[1]]}),
        "LinearizedComplex(ring=F2, bases={0: ('a',), 1: ('b',)}, matrices={1: [[1]]})",
        True, False),
    "GradedModule": (
        lambda: GradedModule("Z", "homological", {0: (1, (2,))}),
        "GradedModule(ring_tag='Z', variance='homological', entries={0: (1, (2,))})",
        True, False),
    "Augmentation": (
        lambda: Augmentation(F2, (("a", 1),)),
        "Augmentation(field=F2, values=(('a', 1),))", True, True),
    "PolySystem": (
        lambda: PolySystem(("a", "b"), (((1, (("a", 1), ("b", 1))), (1, ())),)),
        "PolySystem(variables=('a', 'b'), equations=(((1, (('a', 1), ('b', 1))), (1, ())),))",
        True, True),
    "ObstructionVerdict": (
        lambda: ObstructionVerdict(), "ObstructionVerdict(reasons=())", True, True),
    "Certification": (
        lambda: Certification(ObstructionVerdict(), []),
        "Certification(verdict=ObstructionVerdict(reasons=()), evidence=[])", False, False),
    "SpinStage": (
        lambda: SpinStage(3, 2, 4), "SpinStage(sphere_dim=3, bound=2, legendrian_dimension=4)",
        True, True),
}
# the former records, by the values that now fill their roles
FORMER = {
    "Crossing": (
        lambda: resolve(FRONT).crossings[0], "Generator(name='e1', degree=1)", True, True),
    "PoincarePolynomial": (
        lambda: poincare(GradedModule("F2", COHOMOLOGICAL, {0: (1, ()), 1: (2, ())})),
        "Laurent(terms=((0, 1), (1, 2)))", True, True),
    "FillingProfile": (
        lambda: seidel_profile(GradedModule("Z", COHOMOLOGICAL, {1: (1, ())}), 1),
        "GradedModule(ring_tag='Z', variance='homological', entries={0: (1, ())})",
        True, False),
}
CASES.update(FORMER)
NAMES = sorted(CASES)


def _twin(obj):
    """A record of another class, with the same name and the same field values."""
    cls = type(obj)
    twin_cls = type(cls.__name__, (Record,), {"__slots__": cls._fields})
    twin = object.__new__(twin_cls)
    for name in cls._fields:
        object.__setattr__(twin, name, getattr(obj, name))
    return twin


def test_every_former_dataclass_is_covered():
    # the classes of ldga's modules, not the classes that _twin makes
    classes = {cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("ldga")}
    own = {name for name in CASES if name not in FORMER}
    assert classes == own and len(own) == 15
    assert all(type(make()).__name__ == name for name, (make, *_) in CASES.items()
               if name in own)
    assert {type(make()).__name__ for make, *_ in FORMER.values()} <= own


@pytest.mark.parametrize("name", NAMES)
def test_equal_to_a_same_field_copy(name):
    make = CASES[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b


@pytest.mark.parametrize("name", NAMES)
def test_unequal_to_another_class_with_equal_fields(name):
    a = CASES[name][0]()
    twin = _twin(a)
    assert repr(twin) == repr(a)
    assert a != twin and twin != a


@pytest.mark.parametrize("name", NAMES)
def test_hash_where_hashable(name):
    make, _, _, hashable = CASES[name]
    if hashable:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1
    else:
        with pytest.raises(TypeError):
            hash(make())


@pytest.mark.parametrize("name", NAMES)
def test_repr_as_dataclasses_printed_it(name):
    make, text, *_ = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", NAMES)
def test_assignment_refused_exactly_on_frozen_classes(name):
    make, _, frozen, _ = CASES[name]
    obj = make()
    field = type(obj)._fields[0]
    value = getattr(obj, field)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    else:
        setattr(obj, field, None)
        assert getattr(obj, field) is None


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_rebuild_the_record(name):
    obj = CASES[name][0]()
    assert copy.copy(obj) == obj
    # a deep copy keeps the one ring object but copies a front, which compares
    # by identity
    for other in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(other) is type(obj)
        if name != "ProjectionDiagram":  # its repr shows the front's address
            assert repr(other) == repr(obj)
            assert other == obj


def test_defaults_are_not_shared():
    g = (Generator("x", 0),)
    assert DGA(ZZ, g).differential == {} and DGA(ZZ, g).differential is not DGA(ZZ, g).differential
    m1, m2 = GradedModule("Z", "homological"), GradedModule("Z", "homological")
    assert m1.entries == {} and m1.entries is not m2.entries
    assert ObstructionVerdict().reasons == ()
    assert (FrontEvent("lcusp", 0).upper_arc, FrontEvent("lcusp", 0).lower_arc) == (-1, -1)


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="duplicate generator names"):
        DGA(ZZ, (Generator("x", 0), Generator("x", 1)))
    with pytest.raises(ValueError, match="unknown generators"):
        DGA(ZZ, (Generator("x", 0),), {"y": Element(ZZ, ((("x",), 1),))})
    with pytest.raises(ValueError, match="shape"):
        LinearizedComplex(F2, {0: ("a",)}, {1: [[1]]})
    with pytest.raises(ValueError, match="collide"):
        GridDiagram(2, (0, 1), (0, 1))
    with pytest.raises(ValueError, match="undeclared variable"):
        PolySystem(("a",), (((1, (("b", 1),)),),))
    assert GradedModule("Z", "homological", {0: (0, ()), 1: (2, [3])}).entries == {1: (2, (3,))}
