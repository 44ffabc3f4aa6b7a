"""The library's records: immutable values with named fields, equality and repr.

Eight validating records derive from ``series.Record``; the plain result
records (and ``cli.Scenario``) are named tuples.  Both kinds refuse
assignment and deletion of a field, compare equal on equal inputs and on
nothing of another class, survive a pickle round trip, and print as
``Name(field=value, ...)``.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import numpy as np
import pytest

import entireops as eo
from entireops import cli
from entireops.series import Record


def _problem() -> eo.AxisKernelProblem:
    return eo.AxisKernelProblem([0, 1], 1, [1])


def _symbol() -> eo.ConvolutionSymbol:
    return eo.ConvolutionSymbol(1, {(1,): 2.0})


#: one builder per record class, and the repr of what it builds
EXAMPLES = {
    "TruncatedSeries": (
        lambda: eo.TruncatedSeries(1, 2, 2, True, [1, 2, 3]),
        "TruncatedSeries(dim=1, cutoff=2, exact_degree=2, is_polynomial=True, "
        "vector=array([1.+0.j, 2.+0.j, 3.+0.j]))",
    ),
    "SemiNormSpec": (lambda: eo.SemiNormSpec(2, 0.5), "SemiNormSpec(m=2, epsilon=0.5)"),
    "WeylOperator": (
        lambda: eo.WeylOperator(2, {((1, 0), (0, 1)): 2.0, ((0, 0), (0, 0)): 1j}),
        "WeylOperator(dim=2, terms={((0, 0), (0, 0)): 1j, ((1, 0), (0, 1)): (2+0j)})",
    ),
    "ConvolutionSymbol": (_symbol, "ConvolutionSymbol(dim=1, bcoeffs={(1,): (2+0j)})"),
    "CROperator": (
        lambda: eo.CROperator(1, 1, 1.0, _symbol()),
        "CROperator(dim=1, axis=1, a=(1+0j), conv=ConvolutionSymbol(dim=1, bcoeffs={(1,): (2+0j)}))",
    ),
    "AxisKernelProblem": (
        _problem,
        "AxisKernelProblem(charpoly=(0j, (1+0j)), a=(1+0j), seeds=((1+0j),))",
    ),
    # one cell, so comparing the matrices gives one truth value
    "SpanMatrix": (
        lambda: eo.SpanMatrix(np.array([[1 + 0j]]), ((0,),), 0, 1),
        "SpanMatrix(matrix=array([[1.+0.j]]), row_labels=((0,),), truncation=0, dim=1, "
        "max_order=None)",
    ),
    "LadderVector": (
        lambda: eo.LadderVector([_problem()], {(2,): 1.5}),
        "LadderVector(generator=(AxisKernelProblem(charpoly=(0j, (1+0j)), a=(1+0j), "
        "seeds=((1+0j),)),), terms={(2,): (1.5+0j)})",
    ),
    "CommutationReport": (
        lambda: eo.CommutationReport({(1, 1): 0.0}, 0.0, 4, 1e-12, True),
        "CommutationReport(residuals={(1, 1): 0.0}, max_residual=0.0, probe_degree=4, "
        "tolerance=1e-12, passed=True)",
    ),
    "KernelReport": (
        lambda: eo.KernelReport((1,), (0.0,), 0.0, 1e-12, True),
        "KernelReport(axes=(1,), residuals=(0.0,), max_residual=0.0, tolerance=1e-12, "
        "passed=True)",
    ),
    "CompletenessReport": (
        lambda: eo.CompletenessReport(1, 1, True, 0, None, 1e-10, (1.0,)),
        "CompletenessReport(rank=1, ambient_dim=1, complete_at_truncation=True, "
        "truncation=0, max_order=None, tolerance=1e-10, singular_values=(1.0,))",
    ),
    "ApproximationResult": (
        lambda: eo.ApproximationResult(((0,), (1,)), (1j, 2.0), 0.0),
        "ApproximationResult(orders=((0,), (1,)), coefficients=(1j, 2.0), residual=0.0)",
    ),
    "ConvergenceReport": (
        lambda: eo.ConvergenceReport(
            1, 2, 0.5, 1.0, (1.0, 0.5), (None, 0.5), (1.0, 0.5), (1.0, 1.5), True
        ),
        "ConvergenceReport(axis=1, m=2, epsilon=0.5, bound=1.0, u=(1.0, 0.5), "
        "ratios=(None, 0.5), kth_roots=(1.0, 0.5), partial_sums=(1.0, 1.5), stable=True)",
    ),
    "VisitReport": (
        lambda: eo.VisitReport(3, (1, 0), 0.5, (0.25, 0.0)),
        "VisitReport(steps=3, hits=(1, 0), density_proxy=0.5, distances=(0.25, 0.0))",
    ),
    "Scenario": (
        lambda: cli.Scenario(1, 4, 1e-8, 0, [], None, None, []),
        "Scenario(dimension=1, truncation=4, tolerance=1e-08, rng_seed=0, operators=[], "
        "kernel_problems=None, explicit_generator=None, tasks=[])",
    ),
}
NAMES = list(EXAMPLES)


def _build(name):
    return EXAMPLES[name][0]()


def test_the_examples_cover_every_record_class():
    built = {type(_build(name)) for name in NAMES}
    assert {cls for cls in built if issubclass(cls, Record)} == {
        eo.TruncatedSeries, eo.SemiNormSpec, eo.WeylOperator, eo.ConvolutionSymbol,
        eo.CROperator, eo.AxisKernelProblem, eo.SpanMatrix, eo.LadderVector,
    }
    assert len(built) == 15 and all(issubclass(cls, (Record, tuple)) for cls in built)


@pytest.mark.parametrize("name", NAMES)
def test_a_record_refuses_assignment_and_deletion(name):
    record = _build(name)
    fields = type(record)._fields
    # the constructor takes the fields, in order
    assert list(inspect.signature(type(record)).parameters) == list(fields)
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_equal_inputs_give_equal_records_and_other_classes_differ(name):
    record, again = _build(name), _build(name)
    assert record == again and not record != again
    other = _build(NAMES[(NAMES.index(name) + 1) % len(NAMES)])
    assert record != other and other != record
    if isinstance(record, Record):
        assert record.__eq__(other) is NotImplemented


@pytest.mark.parametrize("name", ["AxisKernelProblem", "SemiNormSpec"])
def test_equal_hashable_records_hash_alike(name):
    assert hash(_build(name)) == hash(_build(name))


def test_a_series_stays_unhashable():
    with pytest.raises(TypeError):
        hash(_build("TruncatedSeries"))


@pytest.mark.parametrize("name", ["ConvolutionSymbol", "CROperator"])
def test_a_derived_table_is_no_field(name):
    record = _build(name)
    assert record.terms and "terms" not in type(record)._fields
    assert "terms" not in repr(record)
    with pytest.raises(AttributeError):
        record.terms = {}


@pytest.mark.parametrize("name", NAMES)
def test_a_record_survives_a_pickle_round_trip_and_a_deep_copy(name):
    record = _build(name)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("name", NAMES)
def test_a_record_prints_in_the_dataclass_form(name):
    build, text = EXAMPLES[name]
    assert repr(build()) == text
