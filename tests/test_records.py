"""The library's records: frozen, compared and hashed on their compared
fields only, built positionally or by keyword, and shown in the
``Name(field=value, ...)`` format."""

import pytest

from sqflows import (
    AugmentedMatching,
    Decomposition,
    DoubleFlow,
    Flow,
    GadgetNetwork,
    InequalityReport,
    Instantiation,
    LaurentExpression,
    NestedMatching,
    PlanarNetwork,
    QuadraticRelation,
    build_half_grid,
)
from sqflows._record import Record
from sqflows.counterexample import build_gadget_network
from sqflows.matchings import BalanceResult, Collection, collection

NET = PlanarNetwork(("s", "t"), (("s", "t"),), ("s",), ("t",), (), "declared", (("s", 0.0, 1.0),))
M = NestedMatching(((1, 4), (2, 3)), 4)
INST = Instantiation(5, frozenset({1}), (2, 4))
AUG = AugmentedMatching(M, M, 2, 2)
GADGET = GadgetNetwork(NET, M, 2)

# one instance's fields per record class, in constructor order and already
# in canonical form, so each reads back as given
FIELDS = {
    PlanarNetwork: dict(
        vertices=("s", "t"),
        edges=(("s", "t"),),
        sources=("s",),
        sinks=("t",),
        origins=(),
        planarity="declared",
        coords=(("s", 0.0, 1.0),),
    ),
    Flow: dict(paths=(("s", "t"),), source_indices=(1,), sink_indices=(1,), network=NET),
    NestedMatching: dict(arcs=((1, 4), (2, 3)), ambient=4),
    Collection: dict(p=2, q=1, members=((1, 2), (1, 3))),
    BalanceResult: dict(balanced=False, witness=M, lhs_count=1, rhs_count=0),
    QuadraticRelation: dict(p=2, q=1, lhs=collection(2, 1, [(1, 3)]), rhs=collection(2, 1, [(1, 2), (2, 3)])),
    Instantiation: dict(n=5, x_set=frozenset({1}), y_list=(2, 4)),
    DoubleFlow: dict(multiplicities=((("s", "t"), 2),), instance=INST, a_set=frozenset({1}), network=NET),
    Decomposition: dict(
        circuits=((("s", "t"),),),
        paths=(),
        essential_arcs=((1, 2),),
        essential_paths=((("s", "t"),),),
        matching=NestedMatching(((1, 2),), 2),
    ),
    AugmentedMatching: dict(
        original=NestedMatching(((1, 2),), 3), result=NestedMatching(((1, 2), (3, 4)), 4), p=2, q=1
    ),
    GadgetNetwork: dict(network=NET, matching=M, p=2),
    InequalityReport: dict(witness=M, augmented=AUG, gadget=GADGET, lhs_sum=3, rhs_sum=1, p1_p2_verified=True),
    LaurentExpression: dict(monomials=((((1, 2), 1), ((2, 2), -1)),)),
}

# the only fields that equality and hashing ignore
UNCOMPARED = {PlanarNetwork: {"coords"}, Flow: {"network"}, DoubleFlow: {"network"}}

_NET_REPR = (
    "PlanarNetwork(vertices=('s', 't'), edges=(('s', 't'),), sources=('s',), sinks=('t',), "
    "origins=(), planarity='declared', coords=(('s', 0.0, 1.0),))"
)
_M_REPR = "NestedMatching(arcs=((1, 4), (2, 3)), ambient=4)"
_INST_REPR = "Instantiation(n=5, x_set=frozenset({1}), y_list=(2, 4))"
_AUG_REPR = f"AugmentedMatching(original={_M_REPR}, result={_M_REPR}, p=2, q=2)"
_GADGET_REPR = f"GadgetNetwork(network={_NET_REPR}, matching={_M_REPR}, p=2)"

# the repr of each FIELDS instance as a frozen dataclass printed it
REPRS = {
    PlanarNetwork: _NET_REPR,
    Flow: "Flow(paths=(('s', 't'),), source_indices=(1,), sink_indices=(1,))",
    NestedMatching: _M_REPR,
    Collection: "Collection(p=2, q=1, members=((1, 2), (1, 3)))",
    BalanceResult: f"BalanceResult(balanced=False, witness={_M_REPR}, lhs_count=1, rhs_count=0)",
    QuadraticRelation: (
        "QuadraticRelation(p=2, q=1, lhs=Collection(p=2, q=1, members=((1, 3),)), "
        "rhs=Collection(p=2, q=1, members=((1, 2), (2, 3))))"
    ),
    Instantiation: _INST_REPR,
    DoubleFlow: f"DoubleFlow(multiplicities=((('s', 't'), 2),), instance={_INST_REPR}, a_set=frozenset({{1}}))",
    Decomposition: (
        "Decomposition(circuits=((('s', 't'),),), paths=(), essential_arcs=((1, 2),), "
        "essential_paths=((('s', 't'),),), matching=NestedMatching(arcs=((1, 2),), ambient=2))"
    ),
    AugmentedMatching: (
        "AugmentedMatching(original=NestedMatching(arcs=((1, 2),), ambient=3), "
        "result=NestedMatching(arcs=((1, 2), (3, 4)), ambient=4), p=2, q=1)"
    ),
    GadgetNetwork: _GADGET_REPR,
    InequalityReport: (
        f"InequalityReport(witness={_M_REPR}, augmented={_AUG_REPR}, gadget={_GADGET_REPR}, "
        "lhs_sum=3, rhs_sum=1, p1_p2_verified=True)"
    ),
    LaurentExpression: "LaurentExpression(monomials=((((1, 2), 1), ((2, 2), -1)),))",
}

CLASSES = list(FIELDS)


def _build(cls):
    return cls(**FIELDS[cls])


def _with(record, name, value):
    """A copy of record with one stored field changed, past any check of
    the constructor."""
    copy = object.__new__(type(record))
    copy.__dict__.update(record.__dict__)
    copy.__dict__[name] = value
    return copy


def test_every_record_class_is_covered():
    assert set(Record.__subclasses__()) == set(CLASSES) == set(REPRS)
    assert len(CLASSES) == 13


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction(cls):
    fields = FIELDS[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for record in (by_position, by_keyword):
        assert {name: getattr(record, name) for name in fields} == fields
    assert by_position == by_keyword


def test_planar_network_defaults():
    net = PlanarNetwork(("s", "t"), (("s", "t"),), ("s",), ("t",))
    assert (net.origins, net.planarity, net.coords) == ((), "declared", ())
    with pytest.raises(TypeError):
        PlanarNetwork(("s", "t"), (("s", "t"),), ("s",))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise(cls):
    record = _build(cls)
    for name in [*FIELDS[cls], "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in FIELDS[cls]} == FIELDS[cls]
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_ignore_exactly_the_uncompared_fields(cls):
    record = _build(cls)
    ignored = UNCOMPARED.get(cls, set())
    compared = tuple(getattr(record, name) for name in FIELDS[cls] if name not in ignored)
    assert hash(record) == hash(compared)
    for name in FIELDS[cls]:
        other = _with(record, name, object())
        if name in ignored:
            assert other == record and hash(other) == hash(record)
        else:
            assert other != record


def test_equality_needs_the_same_class():
    class Sub(NestedMatching):
        pass

    m = NestedMatching(((1, 2),), 2)
    assert m != Sub(((1, 2),), 2)
    assert m != (((1, 2),), 2)
    assert m.__eq__((((1, 2),), 2)) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_is_the_dataclass_repr(cls):
    assert repr(_build(cls)) == REPRS[cls]


def test_cached_properties_fill_the_frozen_instance():
    net = build_half_grid(3)
    assert net.form is net.form
    assert net.crossed_pairing is None
    gadget = build_gadget_network(NestedMatching(((1, 4), (2, 3)), 4))
    assert gadget.table is gadget.table
    with pytest.raises(AttributeError):
        net.form = None
