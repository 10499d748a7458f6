"""Every shape and record against a frozen-dataclass twin.

A twin is a frozen dataclass with the real class's name, fields (the
parameters of its ``__init__``) and methods, which normalises in
``__post_init__`` by building the real value and copying what its
``__init__`` stored.  On the package's corpus and on generated shapes,
the value base must agree with the twin on ``==``, ``hash``, ``repr``,
``str`` and ``mirror()``, on pickle and deepcopy round trips, and on the
``AttributeError`` of assignment and deletion."""

import copy
import dataclasses
import inspect
import io
import pickle
import sys
import types
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehncalc import cli
from dehncalc.diagrams import (build_standard_diagram, checkerboard,
                               oracle_cross_check)
from dehncalc.families import FAMILIES, Check, sweep_verify, verify_family
from dehncalc.links import (MontesinosLink, TwoBridge, Unknot, Unlink,
                            link_connected_sum)
from dehncalc.slopes import Slope
from dehncalc.value import Value
from test_compare_laws import _build, _sums
from test_shape_facts import CORPUS

# The twins live in a module of their own, so that pickle finds them.
_TWINS = types.ModuleType("_value_twins")
sys.modules[_TWINS.__name__] = _TWINS

# What the base, not the class, puts in a class's namespace.
_MACHINERY = {"__init__", "__dict__", "__weakref__", "__module__",
              "__qualname__", "__slots__", "__init_subclass__", "__eq__",
              "__hash__", "__repr__", "__setattr__", "__delattr__",
              "__annotations__", "_fields"}


def _classes(cls=Value):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("dehncalc."):
            yield sub
            yield from _classes(sub)


def _twin_class(cls):
    names = tuple(inspect.signature(cls).parameters)
    namespace = {}
    for klass in reversed(cls.__mro__[:cls.__mro__.index(Value)]):
        namespace.update((k, v) for k, v in vars(klass).items()
                         if k not in _MACHINERY)

    def __post_init__(self):
        real = cls(*(getattr(self, name) for name in names))
        for name, value in vars(real).items():
            object.__setattr__(self, name, value)

    namespace["__post_init__"] = __post_init__
    namespace["__annotations__"] = dict.fromkeys(names, object)
    namespace["__module__"] = _TWINS.__name__
    twin = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))
    setattr(_TWINS, cls.__name__, twin)
    return names, twin


_TWIN_OF = {cls: _twin_class(cls) for cls in _classes()
            if cls.__name__ not in ("Manifold", "Link")}


def _twin(value):
    names, twin = _TWIN_OF[type(value)]
    return twin(*(getattr(value, name) for name in names))


def _outcome(f, *args):
    """f's result, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def _round_trips(value):
    """What a pickle and a deepcopy give back, seen through repr and ==."""
    out = []
    for trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        back = _outcome(trip, value)
        out.append(back if isinstance(back, type)
                   else (type(back).__name__, repr(back), back == value))
    return out


def _refusals(value):
    """The exception types of assigning and deleting a field and a new
    name, each of which must leave the value as it was."""
    before = repr(value)
    field = next(iter(inspect.signature(type(value)).parameters), "p")
    out = [_outcome(setattr, value, field, 1), _outcome(setattr, value, "x", 1),
           _outcome(delattr, value, field)]
    assert repr(value) == before
    return [issubclass(e, AttributeError) for e in out]


def _agree(value):
    """The value against its twin, alone."""
    twin = _twin(value)
    assert repr(value) == repr(twin)
    assert str(value) == str(twin)
    assert _outcome(hash, value) == _outcome(hash, twin)
    assert (value == twin) is False
    if hasattr(value, "mirror"):
        assert repr(value.mirror()) == repr(twin.mirror())
    assert _round_trips(value) == _round_trips(twin)
    assert _refusals(value) == _refusals(twin) == [True] * 3
    return twin


def _agree_on_equality(values):
    twins = [_twin(v) for v in values]
    for a, ta in zip(values, twins):
        for b, tb in zip(values, twins):
            assert (a == b) == (ta == tb), (a, b)
            assert (a != b) == (ta != tb), (a, b)


def _corpus():
    shapes = list(CORPUS)
    shapes += [m.homology for m in CORPUS if m.homology is not None]
    links = [Unknot(), Unlink(3), TwoBridge(7, 3), TwoBridge(50, 19),
             MontesinosLink(-1, (Slope(1, 2), Slope(1, 3), Slope(1, 5))),
             link_connected_sum(TwoBridge(3, 1), TwoBridge(5, 2))]
    shapes += links + [Slope(3, 4), Slope(1, 0), Slope(-2)]
    for spec in FAMILIES.values():
        # Each plan runs the wellformed check first, though no table lists it.
        shapes += [spec, *spec.claims, Check("wellformed"), *spec.checks,
                   *spec.edges]
    cyclic = {"p": 2, "q": 4}
    report = verify_family("cyclic", cyclic)
    shapes += [report, *report.checks,
               sweep_verify("cyclic", {"p": (2, 3), "q": (4, 4)})]
    for link in links[2:5]:
        diagram = build_standard_diagram(link)
        shapes += [diagram, checkerboard(diagram), oracle_cross_check(link)]
    return shapes


_CORPUS = _corpus()


def test_every_value_class_has_a_twin_and_a_corpus_entry():
    assert {cls.__name__ for cls in _TWIN_OF} == {
        "H1Result", "S3", "S1xS2", "SolidTorus", "T2xI", "ZxS1", "Lens",
        "SfsS2", "SfsOrdersOnly", "CableSpace", "OpaqueTag", "ConnSum",
        "TorusUnion", "Unknot", "Unlink", "TwoBridge", "MontesinosLink",
        "ConnSumLink", "Slope", "Claim", "Check", "Edge", "FamilySpec",
        "CheckResult", "VerificationReport", "SweepReport",
        "CombinatorialMap", "Checkerboard", "OracleReport"}
    assert {type(v) for v in _CORPUS} == set(_TWIN_OF)


@pytest.mark.parametrize("value", _CORPUS, ids=lambda v: type(v).__name__)
def test_corpus_agrees_with_the_twins(value):
    _agree(value)
    # A value built again from its fields is equal, as its twin is.
    again = type(value)(*(getattr(value, n) for n in _TWIN_OF[type(value)][0]))
    assert again == value
    _agree_on_equality([value, again])


def test_corpus_equality_agrees_with_the_twins():
    _agree_on_equality(_CORPUS)


@settings(max_examples=200, deadline=None, database=None)
@given(_sums(), _sums(), st.sampled_from(CORPUS))
def test_generated_shapes_agree_with_the_twins(parts, other_parts, partial):
    m, other = _build(parts), _build(other_parts)
    values = [m, other, partial, *getattr(m, "summands", ())]
    for value in values:
        _agree(value)
    _agree_on_equality(values + [_build(parts)])


def test_fields_are_stored_in_declared_order():
    # cli._cmd_oracle reads an OracleReport's fields as its columns.
    report = oracle_cross_check(TwoBridge(7, 3))
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["oracle", "b(7/3)", "--format", "tsv"])
    header = out.getvalue().splitlines()[3]
    assert tuple(vars(report)) == tuple(header.split("\t")) == (
        "link", "crossings", "goeritz", "formula", "h1_order", "match")
    for value in _CORPUS:
        names = _TWIN_OF[type(value)][0]
        assert tuple(vars(value))[:len(names)] == names
