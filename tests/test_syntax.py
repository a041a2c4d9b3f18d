"""Values, stores, streams, and shared data structures."""

from itertools import permutations

import pytest

from whilesem.syntax import (
    ANY_NAT,
    Converged,
    EMPTY_STORE,
    EMPTY_STREAM,
    InputStream,
    Nat,
    NULL,
    Store,
    Stuck,
    cmd_has_exceptions,
    cmd_has_input,
    fac_program,
    format_store,
    format_val,
    format_verdict,
    store_from_json,
    store_to_json,
    stream_from_json,
    stream_to_json,
    val_from_json,
    val_to_json,
)
from whilesem.parser import parse_cmd


def test_nat_rejects_negative():
    with pytest.raises(ValueError):
        Nat(-1)


def test_value_formatting():
    assert format_val(Nat(7)) == "7"
    assert format_val(NULL) == "null"
    assert format_val(ANY_NAT) == "*"


def test_value_json_round_trip():
    for v in (Nat(0), Nat(42), NULL, ANY_NAT):
        assert val_from_json(val_to_json(v)) == v


def test_store_extensional_equality():
    a = EMPTY_STORE.update("x", Nat(1)).update("y", NULL)
    b = EMPTY_STORE.update("y", NULL).update("x", Nat(1))
    assert a == b
    assert hash(a) == hash(b)


def test_store_laws():
    """Equality and hash ignore insertion and update order; every view is in
    sorted order; a store works as a dict key."""
    target = {"a": Nat(1), "b": NULL, "c": ANY_NAT}
    stores = [Store(target), Store(reversed(list(target.items())))]
    for order in permutations(target):
        s = EMPTY_STORE.update(order[-1], Nat(9))  # overwritten below
        for x in order:
            s = s.update(x, target[x])
        stores.append(s)
    for s in stores:
        assert s == stores[0]
        assert hash(s) == hash(stores[0])
        assert s.items() == (("a", Nat(1)), ("b", NULL), ("c", ANY_NAT))
        assert list(s) == ["a", "b", "c"]
        assert repr(s) == "Store({'a': Nat(1), 'b': Null, 'c': AnyNat})"
        assert len(s) == 3
    assert len({s: i for i, s in enumerate(stores)}) == 1
    assert {stores[0]: "found"}[stores[-1]] == "found"
    assert stores[0] != stores[0].update("c", Nat(0))
    assert stores[0] != Store({"a": Nat(1), "b": NULL})
    assert Store() == EMPTY_STORE and hash(Store()) == hash(EMPTY_STORE)


def test_store_update_leaves_the_original_unchanged():
    bindings = {"y": Nat(2), "x": Nat(1)}
    a = Store(bindings)
    bindings["z"] = NULL  # the store took a copy
    items, h = a.items(), hash(a)  # fill the cached views first
    b = a.update("x", Nat(5)).update("w", NULL)
    assert a.items() == items == (("x", Nat(1)), ("y", Nat(2)))
    assert hash(a) == h and "z" not in a and "w" not in a
    assert b.items() == (("w", NULL), ("x", Nat(5)), ("y", Nat(2)))


def test_store_update_is_persistent():
    a = EMPTY_STORE.update("x", Nat(1))
    b = a.update("x", Nat(2))
    assert a.get("x") == Nat(1)
    assert b.get("x") == Nat(2)
    assert "x" in a and "y" not in a
    assert a.domain() == frozenset({"x"})


def test_store_formatting_sorted():
    s = Store({"b": Nat(2), "a": Nat(1)})
    assert format_store(s) == "{a↦1, b↦2}"


def test_store_json_round_trip():
    s = Store({"x": Nat(3), "y": NULL, "z": ANY_NAT})
    assert store_from_json(store_to_json(s)) == s


def test_stream_pop_advances_cursor():
    s = InputStream.of(1, None, 2)
    v1, s1 = s.pop()
    assert v1 == Nat(1)
    v2, s2 = s1.pop()
    assert v2 == NULL
    v3, s3 = s2.pop()
    assert v3 == Nat(2)
    assert s3.pop() is None
    assert s3.exhausted()
    # the original stream is untouched
    assert s.pop()[0] == Nat(1)


def test_stream_json_round_trip():
    s = InputStream.of(1, 0, None)
    _, advanced = s.pop()
    for stream in (EMPTY_STREAM, s, advanced):
        assert stream_from_json(stream_to_json(stream)) == stream


def test_feature_detection():
    assert cmd_has_input(parse_cmd("x := input"))
    assert not cmd_has_input(parse_cmd("x := 1"))
    assert cmd_has_exceptions(parse_cmd("throw 1"))
    assert cmd_has_exceptions(parse_cmd("try { skip } catch { skip }"))
    assert not cmd_has_exceptions(parse_cmd("while 1 { skip }"))


def test_fac_program_shape():
    c = fac_program(4)
    assert cmd_has_input(c) is False
    assert cmd_has_exceptions(c) is False


def test_verdict_formatting():
    assert format_verdict(Converged(Store({"x": Nat(1)}))) == "Converged {x↦1}"
    assert format_verdict(Stuck("why")) == "Stuck: why"
