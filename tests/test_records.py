"""The package's record types behave as immutable values.

Every record class is checked for the same contract: its fields cannot be
assigned or deleted, equal fields give equal objects with equal hashes
(where the class is hashable), its repr is ``Name(field=value, ...)``, a
pickle round trip and a copy give an equal object, and invalid input
raises the error type the class documents.
"""

import copy
import pickle
import random

import pytest

from goursat import errors, oracle, symcalc
from goursat.charts import Chart, ChartPoint, canonical_chart_point
from goursat.codeword import GoursatWord, RvtWord
from goursat.errors import BadSymbol, InvalidPC, WordError
from goursat.invariants import (
    ETable,
    InvariantBundle,
    PuiseuxCharacteristic,
    bundle,
    e_table,
)
from goursat.proximity import ProximityDiagram, build_diagram


def _point():
    return canonical_chart_point("RRVTVV")


# (class, a fresh instance, its fields in constructor order, hashable,
#  invalid input, the error it raises)
CASES = [
    (RvtWord, lambda: RvtWord("RRVT"), ("symbols",), True,
     lambda: RvtWord("RX"), BadSymbol),
    (GoursatWord, lambda: GoursatWord("RRV"), ("symbols",), True,
     lambda: GoursatWord("RV"), WordError),
    (Chart, lambda: Chart("oio"), ("choices",), True,
     lambda: Chart("ox"), ValueError),
    (ChartPoint, _point, ("chart", "coords"), True,
     lambda: ChartPoint(Chart("o"), (0,)), ValueError),
    (ETable, lambda: e_table((0, 5, 0, 1, 1), 6), ("k", "vo", "b"), True,
     lambda: ETable(6, (0, 5, 0, 1, 1)), TypeError),
    (PuiseuxCharacteristic, lambda: PuiseuxCharacteristic(8, (19,)),
     ("lambda0", "exponents"), True,
     lambda: PuiseuxCharacteristic(2), InvalidPC),
    (InvariantBundle, lambda: bundle("RRVTVV"),
     ("word", "goursat_word", "k", "beta", "der", "der2", "sg", "mult_vector", "m0",
      "vo", "b", "e_table", "puiseux", "nonholonomy_degree"), True,
     lambda: InvariantBundle(RvtWord("R")), TypeError),
    (ProximityDiagram, lambda: build_diagram("RRVTVV"), ("word", "edges", "mult"), True,
     lambda: ProximityDiagram(GoursatWord("R")), TypeError),
    (oracle.Series, lambda: oracle.Series((1, 2, 3)), ("coeffs",), True,
     lambda: oracle.Series(), TypeError),
    (oracle.JetCurve, lambda: oracle.focal_jet(_point(), random.Random(0), 6),
     ("chart", "series"), True,
     lambda: oracle.JetCurve(Chart("o")), TypeError),
    (oracle.FocalOrders, lambda: oracle.focal_orders(_point()),
     ("point", "o_coord", "o_diff", "vo"), True,
     lambda: oracle.FocalOrders(_point()), TypeError),
    (symcalc.Packing, lambda: symcalc.Packing(Chart("oi"), 3), ("chart", "width"), True,
     lambda: symcalc.Packing(Chart("oi"), 0), ValueError),
    (symcalc.BracketEntry, lambda: symcalc.predicted_vf(Chart("oio"), 1, 2),
     ("coeff", "mono", "kind", "index"), True,
     lambda: symcalc.BracketEntry(0), TypeError),
    # Its entries are a dict, so a table is not hashable.
    (symcalc.BracketTable, lambda: symcalc.bracket_table(Chart("oi")),
     ("chart", "entries"), False,
     lambda: symcalc.BracketTable(Chart("oi")), TypeError),
    # Its fields are packed rows, which are dicts, so a basis is not
    # hashable.
    (symcalc.GBasis, lambda: symcalc.g_basis(Chart("oi")),
     ("chart", "fields", "divisors", "idents"), False,
     lambda: symcalc.GBasis(Chart("oi")), TypeError),
]


@pytest.mark.parametrize(
    "cls, make, fields, hashable, invalid, error", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_record_is_an_immutable_value(cls, make, fields, hashable, invalid, error):
    a = make()
    assert type(a) is cls
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)

    values = {name: getattr(a, name) for name in fields}
    rebuilt = cls(**values)
    for b in (make(), rebuilt, cls(*values.values())):
        assert b == a and not b != a
        if hashable:
            assert hash(b) == hash(a)
    if not hashable:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in values.items())})"

    for again in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(again) is cls and again == a

    with pytest.raises(error):
        invalid()


def test_equality_needs_the_same_class():
    assert RvtWord("RR") != GoursatWord("RR")
    assert Chart("oo") != "oo" and RvtWord("RR") != "RR"
    assert PuiseuxCharacteristic(1) == PuiseuxCharacteristic(1, ())


# Constructor arguments for the errors whose __init__ takes parts of the
# message rather than the message itself; every other error takes one
# message.
ERROR_ARGS = {
    "EmptyWord": (),
    "BadSymbol": (3, "x"),
    "LeadingCritical": ("V",),
    "OrphanT": (3,),
    "TooShort": (2, 1),
    "MissingM0": (),
    "IndexRange": ("a_coeff: i", 0, 1, 2),
}
ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, BaseException)
]


@pytest.mark.parametrize("cls", ERRORS, ids=[cls.__name__ for cls in ERRORS])
def test_error_survives_a_pickle_round_trip(cls):
    # verify --all-words sends a worker process's exception to the parent
    # as a pickle; it must arrive with its type, message and attributes.
    exc = cls(*ERROR_ARGS.get(cls.__name__, (f"{cls.__name__}: a message",)))
    for again in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
        assert type(again) is cls
        assert str(again) == str(exc) and again.args == exc.args
        assert vars(again) == vars(exc)


def test_error_pickles_keep_their_attributes():
    again = pickle.loads(pickle.dumps(errors.BadSymbol(3, "x")))
    assert (again.position, again.symbol) == (3, "x")
    assert str(pickle.loads(pickle.dumps(errors.OrphanT(3)))) == (
        "OrphanT at 3: T must be preceded by V or T"
    )
    assert str(pickle.loads(pickle.dumps(errors.IndexRange("x", 1, 2)))) == (
        "IndexRange: x=1 below 2"
    )
