"""The flag-threading evaluator: statuses, exceptions, input, abort rules."""

from whilesem.flag_based import FlagResult, OutOfFuelF, eval_flag, flag_fuel_used
from whilesem.parser import parse_cmd
from whilesem.syntax import (
    DOWN,
    EMPTY_STORE,
    EMPTY_STREAM,
    Exc,
    InputStream,
    Nat,
    Store,
    Stuck,
    UP,
    Up,
    fac_program,
)

from conftest import corpus


def _run(src, store=EMPTY_STORE, flag=DOWN, stream=EMPTY_STREAM, fuel=10_000):
    return eval_flag(parse_cmd(src), store, flag, stream, fuel)


def test_factorial():
    r = _run("skip", fuel=1)
    assert isinstance(r, FlagResult)
    r = eval_flag(fac_program(4), EMPTY_STORE, DOWN, EMPTY_STREAM, 10_000)
    assert r.status == DOWN
    assert r.store == Store({"c": Nat(0), "r": Nat(24)})


def test_throw_switches_to_exception_status():
    r = _run("alloc x; x := 1; throw 2")
    assert isinstance(r.status, Exc)
    assert r.status.value == Nat(2)
    # the exception carries the store at the throw point
    assert r.status.at == Store({"x": Nat(1)})
    # the visible store component is the empty sentinel while aborting
    assert r.store == EMPTY_STORE


def test_uncaught_exception_skips_the_rest():
    # after the throw, the stuck assignment is never reached
    r = _run("throw 1; x := y")
    assert isinstance(r.status, Exc)


def test_catch_resumes_from_the_throw_point_store():
    # the handler sees the store as it was when the exception was raised,
    # including updates made before the throw inside the protected body
    r = _run("alloc x; try { x := 1; throw 9 } catch { x := x + 1 }")
    assert r.status == DOWN
    assert r.store == Store({"x": Nat(2)})


def test_catch_without_exception_ignores_handler():
    r = _run("alloc x; try { x := 1 } catch { x := 99 }")
    assert r.status == DOWN
    assert r.store == Store({"x": Nat(1)})


def test_nested_catch_inner_handles():
    r = _run("alloc x; try { try { throw 1 } catch { x := 1 } } catch { x := 2 }")
    assert r.status == DOWN
    assert r.store == Store({"x": Nat(1)})


def test_handler_can_rethrow():
    r = _run("try { throw 1 } catch { throw 2 }")
    assert isinstance(r.status, Exc)
    assert r.status.value == Nat(2)


def test_up_input_aborts_without_fuel():
    # with the divergence flag raised, any command completes in zero fuel
    # and reports divergence with the empty-store sentinel
    big = "while 1 { x := x + 1 }; throw 3"
    r = _run(big, flag=UP, fuel=0)
    assert isinstance(r, FlagResult)
    assert isinstance(r.status, Up)
    assert r.store == EMPTY_STORE


def test_exception_input_aborts_without_fuel():
    exc = Exc(Nat(7), Store({"x": Nat(1)}))
    r = _run("while 1 { skip }", flag=exc, fuel=0)
    assert isinstance(r, FlagResult)
    assert r.status == exc


def test_stuck_and_fuel():
    r = _run("x := 1")
    assert isinstance(r, Stuck)
    assert _run("while 1 { skip }", fuel=5_000) == OutOfFuelF()


def test_input_consumption():
    r = _run("alloc x; x := input + input", stream=InputStream.of(2, 3))
    assert r.status == DOWN
    assert r.store == Store({"x": Nat(5)})
    assert r.stream.exhausted()


def test_exception_discards_pending_input_reads():
    # the throw happens before the input read; the stream stays untouched
    r = _run("throw 1; x := input", stream=InputStream.of(4))
    assert isinstance(r.status, Exc)
    assert not r.stream.exhausted()


def test_fuel_parity_with_big_step_on_throwless_programs():
    from whilesem.big_step import fuel_used

    for c in corpus(150, first_seed=900):
        big_cost = fuel_used(c, EMPTY_STORE, EMPTY_STREAM, 500)
        flag_cost = flag_fuel_used(c, EMPTY_STORE, DOWN, EMPTY_STREAM, 500)
        assert big_cost == flag_cost, c


def test_up_never_arises_from_a_normal_start():
    # no rule raises the divergence flag: evaluation that begins with the
    # normal status can finish normally, raise an exception, get stuck, or
    # run out of fuel — never report divergence
    for c in corpus(300, allow_throw=True, wellformed=0.7):
        r = eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, 400)
        if isinstance(r, FlagResult):
            assert not isinstance(r.status, Up), c
