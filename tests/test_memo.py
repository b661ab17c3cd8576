"""operators.memoized: each value once per object and argument tuple, kept by the object alone."""

import gc
import weakref

import pytest

from acx.cli import Session
from acx.operators import memoized


class Value:
    """A memoized result that a weakref can watch."""


class Owner:
    def __init__(self):
        self.runs = []

    @memoized
    def value(self, *args):
        self.runs.append(args)
        return Value()


def test_body_runs_once_per_argument_tuple():
    owner = Owner()
    for args in [(1,), (2,), (1,), (), (1, "a"), (2,), (), (1, "a")]:
        owner.value(*args)
    assert owner.runs == [(1,), (2,), (), (1, "a")]
    assert set(owner._value_cache) == {(1,), (2,), (), (1, "a")}


def test_repeat_call_returns_the_identical_object():
    owner = Owner()
    first = owner.value(3, 4)
    assert owner.value(3, 4) is first and owner.value(4, 3) is not first


def test_objects_keep_their_values_apart():
    a, b = Owner(), Owner()
    va, vb = a.value(1), b.value(1)
    assert va is not vb
    assert a.runs == b.runs == [(1,)]
    assert a.value(1) is va and b.value(1) is vb


def test_keyword_arguments_are_refused():
    with pytest.raises(TypeError):
        Owner().value(k=1)


def test_dropped_object_frees_its_values():
    owner = Owner()
    ref = weakref.ref(owner.value(1))
    del owner
    gc.collect()
    assert ref() is None


def test_dropped_session_frees_its_engines_and_their_values(kt4_session):
    """The session's memo holds its engines, and each engine's memo its numbers: dropping the session frees both."""
    session = Session(kt4_session.spec)
    engine = session.engine(0)
    assert session.engine() is session.engine(1) and session.engine(0) is engine
    engine.dolbeault_cw(1, 1)
    assert (1, 1) in engine._dolbeault_cw_parts_cache
    ref = weakref.ref(engine)
    del session, engine
    gc.collect()
    assert ref() is None
