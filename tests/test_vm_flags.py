"""Exhaustive checks of the lazy-flag encoding and the Jcc predicates.

The translated executor carries flags symbolically as ``(fk, fa, fb)``
— concrete bits, a pending CMP, or a pending TEST — and collapses them
only when observed.  Conditional branches compile to the predicate
source in ``_CMP_PRED``, ``_TEST_PRED`` or ``_CONC_PRED``, one table per
kind.  These tests pin the encoding and every table entry against a
direct architectural model over every condition code and the unsigned
64-bit boundary operands, so any drift shows up here before it shows
up as a one-bit divergence deep inside a benchmark.
"""

import itertools

import pytest

from repro.isa.instructions import COND_JUMPS, Op
from repro.vm.translate import (
    _CMP_PRED, _CONC_PRED, _TEST_PRED, materialize_flags, pack_flags,
)

_U64 = (1 << 64) - 1
_SIGN = 1 << 63

#: Unsigned boundary operands: zero, one, the signed-positive maximum,
#: the signed minimum, and the unsigned maximum (-1).
BOUNDARY = (0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)


def _signed(v: int) -> int:
    return v - (1 << 64) if v & _SIGN else v


def _cmp_flags(a: int, b: int):
    """Architectural flags after ``CMP a, b``."""
    return a == b, _signed(a) < _signed(b), a < b


def _test_flags(a: int, b: int):
    """Architectural flags after ``TEST a, b``."""
    v = a & b
    return v == 0, bool(v & _SIGN), False


def _pred(table, op, fa, fb=0) -> bool:
    """Evaluate a predicate as generated code does: the table's source
    with the sign-bit constant bound in."""
    return bool(eval(table[op].format(sg="sg"),
                     {"fa": fa, "fb": fb, "sg": _SIGN}))


def _ref_pred(op: int, f_eq: bool, f_lt_s: bool, f_lt_u: bool) -> bool:
    """Condition-code semantics straight from the x86 tables."""
    return {
        Op.JE: f_eq,
        Op.JNE: not f_eq,
        Op.JL: f_lt_s,
        Op.JLE: f_lt_s or f_eq,
        Op.JG: not (f_lt_s or f_eq),
        Op.JGE: not f_lt_s,
        Op.JB: f_lt_u,
        Op.JBE: f_lt_u or f_eq,
        Op.JA: not (f_lt_u or f_eq),
        Op.JAE: not f_lt_u,
    }[op]


def test_pack_materialize_roundtrip_all_combinations():
    for f_eq, f_lt_s, f_lt_u in itertools.product((False, True),
                                                  repeat=3):
        packed = pack_flags(f_eq, f_lt_s, f_lt_u)
        assert materialize_flags(0, packed, 0) == (f_eq, f_lt_s, f_lt_u)


def test_pack_is_dense_and_stable():
    # The three booleans map to bits 0..2; nothing else may leak in.
    seen = {pack_flags(*combo) for combo in
            itertools.product((False, True), repeat=3)}
    assert seen == set(range(8))


@pytest.mark.parametrize("a", BOUNDARY)
@pytest.mark.parametrize("b", BOUNDARY)
def test_pending_cmp_matches_architectural_model(a, b):
    assert materialize_flags(1, a, b) == _cmp_flags(a, b)


@pytest.mark.parametrize("a", BOUNDARY)
@pytest.mark.parametrize("b", BOUNDARY)
def test_pending_test_matches_architectural_model(a, b):
    assert materialize_flags(2, a & b, 0) == _test_flags(a, b)


@pytest.mark.parametrize("op", sorted(COND_JUMPS))
@pytest.mark.parametrize("a", BOUNDARY)
@pytest.mark.parametrize("b", BOUNDARY)
def test_eval_jcc_pending_cmp_all_codes(op, a, b):
    assert _pred(_CMP_PRED, op, a, b) == _ref_pred(op, *_cmp_flags(a, b))


@pytest.mark.parametrize("op", sorted(COND_JUMPS))
@pytest.mark.parametrize("a", BOUNDARY)
@pytest.mark.parametrize("b", BOUNDARY)
def test_eval_jcc_pending_test_all_codes(op, a, b):
    assert _pred(_TEST_PRED, op, a & b) == \
        _ref_pred(op, *_test_flags(a, b))


@pytest.mark.parametrize("op", sorted(COND_JUMPS))
def test_eval_jcc_concrete_agrees_with_lazy(op):
    # Materializing first and evaluating concrete must agree with
    # evaluating the lazy state directly — the two paths generated
    # code can take across a block boundary.
    for a, b in itertools.product(BOUNDARY, repeat=2):
        for kind, table, fa, fb in ((1, _CMP_PRED, a, b),
                                    (2, _TEST_PRED, a & b, 0)):
            lazy = _pred(table, op, fa, fb)
            packed = pack_flags(*materialize_flags(kind, fa, fb))
            assert _pred(_CONC_PRED, op, packed) == lazy
