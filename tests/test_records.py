"""The value records keep their contract: repr, equality, hash, immutability,
defaults, validation and pickling.

The pinned repr strings were taken from real calls of the engine; they are
the same text the standard library's frozen dataclasses produced for these
records.
"""

import pickle

import pytest

from tjurina import (
    Classification,
    DoubleA,
    FamilyParams,
    FamilyVerification,
    MonomialOrder,
    MultiplicityAtLeastThree,
    SimplePoint,
    SingularityReport,
    TruncationTrace,
    analyze,
    classify_double_point,
    parse_poly,
    verify_params,
)
from tjurina.poly import GRLEX

from reference import checked_buchberger

TAU_TRACE = ("TruncationTrace(pairs=((1, 1), (2, 3), (3, 5), (4, 7), (5, 9), (6, 10), "
             "(7, 11), (8, 11)), stabilized_at=7)")
MU_TRACE = ("TruncationTrace(pairs=((1, 1), (2, 3), (3, 5), (4, 7), (5, 9), (6, 10), "
            "(7, 11), (8, 12), (9, 12)), stabilized_at=8)")
REPORT = (
    "SingularityReport(point=(0, 0), multiplicity=3, is_on_curve=True, ordinary=False, "
    "tjurina=11, milnor=12, symmetry_order=None, "
    "classification=Classification(kind='non_ordinary', index=3), "
    f"tjurina_trace={TAU_TRACE}, milnor_trace={MU_TRACE})"
)
VERIFICATION = (
    "FamilyVerification(params=FamilyParams(a=5, b=3, c=3), case=<FamilyCase.A4: 'A4'>, "
    "formula_tau=15, live_tau=15, gb_match=True, lt_match=True)"
)


def _report():
    return analyze(parse_poly("x^3 + y^7 + x*y^5"), (0, 0))


def _outcomes():
    return [classify_double_point(parse_poly(text), (0, 0))
            for text in ("x + y^2", "y^2 - x^5", "x^3 + y^4")]


def _records():
    """One record of each of the nine kinds, built by the engine."""
    report = _report()
    return [report, report.tjurina_trace, report.classification, *_outcomes(),
            verify_params(FamilyParams(5, 3, 3), check_gb=True),
            FamilyParams(4, 1, 4), MonomialOrder("local")]


def test_repr_is_pinned():
    report = _report()
    assert repr(report) == REPORT
    assert (repr(report.tjurina_trace), repr(report.milnor_trace)) == (TAU_TRACE, MU_TRACE)
    assert repr(report.classification) == "Classification(kind='non_ordinary', index=3)"
    assert [repr(o) for o in _outcomes()] == [
        "SimplePoint(tangent=Polynomial(x))", "DoubleA(n=4)",
        "MultiplicityAtLeastThree(multiplicity=3)"]
    assert repr(verify_params(FamilyParams(5, 3, 3), check_gb=True)) == VERIFICATION
    assert repr(FamilyParams(4, 1, 4)) == "FamilyParams(a=4, b=4, c=1)"
    assert repr(MonomialOrder("local")) == "MonomialOrder(kind='local')"


def test_equality_needs_the_same_class():
    assert DoubleA(3) != MultiplicityAtLeastThree(3)
    assert DoubleA(3) == DoubleA(n=3) and DoubleA(3) != DoubleA(4)
    assert DoubleA(3) != (3,) and Classification("smooth") != "smooth point"
    assert FamilyParams(4, 1, 4) == FamilyParams(4, 4, 1)


def test_equal_records_hash_equally_and_serve_as_keys():
    for first, second in zip(_records(), _records()):
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert {first: 1}[second] == 1
    assert hash(DoubleA(3)) == hash((3,))
    assert hash(MonomialOrder("lex")) == hash(("lex",))
    assert hash(FamilyParams(4, 1, 4)) == hash((4, 4, 1))


def test_a_one_field_record_hashes_and_compares_in_one_python_call():
    # MonomialOrder is hashed on every groebner._words lookup: the hash and
    # equality of a one-field record are closures over its C getter alone
    import sys
    order, other = MonomialOrder("local"), MonomialOrder("local")
    for op in (hash, other.__eq__):
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(event) if event == "call" else None)
        try:
            op(order)
        finally:
            sys.setprofile(None)
        assert calls == ["call"], op
    assert hash(order) == hash(("local",)) and order == other


def test_records_are_immutable():
    for record in _records():
        field = repr(record).split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, "extra", None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_defaults_stay():
    assert MonomialOrder() == GRLEX and MonomialOrder().kind == "grlex"
    assert Classification("smooth").index is None
    assert TruncationTrace(((1, 1), (2, 1)), 1).basis is None
    assert str(Classification("A_n", 1)) == "node (A_1)"


def test_truncation_trace_equality_ignores_the_basis():
    trace = _report().tjurina_trace
    assert trace.basis is not None
    bare = TruncationTrace(trace.pairs, trace.stabilized_at)
    assert bare == trace and hash(bare) == hash(trace) and repr(bare) == repr(trace)
    assert hash(trace) == hash((trace.pairs, trace.stabilized_at))
    assert (trace.value, trace.alphas()) == (11, (1, 3, 5, 7, 9, 10, 11, 11))


def test_validation_and_normalisation_stay():
    assert (FamilyParams(4, 1, 4).b, FamilyParams(4, 1, 4).c) == (4, 1)
    for args, message in [((1, 2, 3), "need a >= 2"),
                          ((4, 2, 2), "need b + c > a, got (4, 2, 2)"),
                          ((4, -1, 6), "need b, c >= 0"),
                          ((4.0, 3, 3), "need integer a, b, c")]:
        with pytest.raises(ValueError) as e:
            FamilyParams(*args)
        assert str(e.value) == message
    with pytest.raises(ValueError) as e:
        MonomialOrder("foo")
    assert str(e.value) == "unknown order kind 'foo'"


def test_pickle_round_trip_gives_an_equal_record():
    # a trace's basis and a SimplePoint's tangent pickle too: a Polynomial is
    # rebuilt through _from_valid, a basis's packed words through their cache
    report = _report()
    trace = report.tjurina_trace
    records = [TruncationTrace(trace.pairs, trace.stabilized_at), *_outcomes()[1:],
               Classification("A_n", 4), FamilyParams(4, 1, 4),
               MonomialOrder("local"),
               _outcomes()[0], trace, report, verify_params(FamilyParams(5, 3, 3), check_gb=True)]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)
    # a GroebnerBasis, reduced or under a cut
    reduced = checked_buchberger([parse_poly("x^2+y"), parse_poly("x*y-1")])
    for basis in (trace.basis, reduced):
        copy = pickle.loads(pickle.dumps(basis))
        assert copy is not basis and repr(copy) == repr(basis)
        assert (copy.order, copy.cut, copy.leading_monomials()) == \
            (basis.order, basis.cut, basis.leading_monomials())
        if basis is reduced:
            assert copy.reduced and copy.generators == basis.generators


def test_a_report_is_plain_data():
    # analyze's report is plain data: equality, hash, repr and pickling are
    # those of all its fields
    report = _report()
    assert report._shown == SingularityReport.__slots__
    assert "germ" not in SingularityReport.__slots__
    fields = [getattr(report, name) for name in report._shown]
    rebuilt = SingularityReport(*fields)
    assert rebuilt == report and hash(rebuilt) == hash(report)
    assert hash(report) == hash(tuple(fields))
    assert repr(rebuilt) == repr(report) == REPORT
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report and repr(copy) == REPORT


def test_every_record_kind_is_covered():
    kinds = {type(r) for r in _records()}
    assert kinds == {Classification, DoubleA, FamilyParams, FamilyVerification, MonomialOrder,
                     MultiplicityAtLeastThree, SimplePoint, SingularityReport, TruncationTrace}
