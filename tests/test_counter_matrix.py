"""Property tests for the counter matrix a simulation result carries.

A :class:`~repro.coresim.counters.CounterTimeSeries` is counter names, one
``(counters x steps)`` float64 matrix and the IPC.  The matrix goes
unchanged from the kernels through :class:`~repro.runtime.store.StoredResult`,
the result store and the workers' pickles into stage 1, so these tests draw
name sets, step counts and values (zero, negative, huge) and check the three
places that could bend it: the feature gather, the round trips, and the
store's refusal of a matrix that does not fit its names and IPC.
"""

import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.coresim.counters import CounterTimeSeries
from repro.runtime.store import ResultStore, StoredResult

#: The name universe draws pick from; a series holds a subset of it.
UNIVERSE = tuple(f"c.n{i}" for i in range(8))

_values = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([-1e308, 1e308, 5e-324, -3.5, 2.0**60]),
)


@st.composite
def series(draw):
    names = tuple(sorted(draw(st.sets(st.sampled_from(UNIVERSE), min_size=1))))
    steps = draw(st.integers(1, 12))
    values = np.array(
        draw(st.lists(_values, min_size=len(names) * steps, max_size=len(names) * steps)),
        dtype=np.float64,
    ).reshape(len(names), steps)
    ipc = np.array(draw(st.lists(_values, min_size=steps, max_size=steps)))
    return CounterTimeSeries(draw(st.integers(1, 4096)), names, values, ipc)


def _stored(value: CounterTimeSeries) -> StoredResult:
    return StoredResult(
        study="core", config_name="X", bug_name="bug-free",
        instructions=8, cycles=16.0, amat=0.0, series=value,
    )


def _same_bytes(a: CounterTimeSeries, b: CounterTimeSeries) -> None:
    assert a.step_cycles == b.step_cycles
    assert a.names == b.names
    assert a.values.dtype == b.values.dtype and a.values.shape == b.values.shape
    assert a.values.tobytes() == b.values.tobytes()
    assert a.ipc.dtype == b.ipc.dtype and a.ipc.tobytes() == b.ipc.tobytes()


@settings(max_examples=60, deadline=None)
@given(value=series(), wanted=st.lists(st.sampled_from(UNIVERSE + ("absent",))))
def test_matrix_is_a_column_stack_with_zero_columns_for_absent_names(value, wanted):
    column = dict(zip(value.names, value.values))
    zeros = np.zeros(value.num_steps)
    expected = np.column_stack([column.get(name, zeros) for name in wanted]) if wanted \
        else np.empty((value.num_steps, 0))
    gathered = value.matrix(wanted)
    assert gathered.shape == (value.num_steps, len(wanted))
    assert np.array_equal(gathered, expected)
    assert gathered.tobytes() == np.ascontiguousarray(expected).tobytes()


@settings(max_examples=40, deadline=None)
@given(value=series())
def test_store_and_pickle_round_trips_are_byte_identical(value):
    result = _stored(value)
    _same_bytes(pickle.loads(pickle.dumps(result)).series, value)
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        store.put("aa0", result)
        loaded = store.get("aa0")
    assert loaded is not None
    _same_bytes(loaded.series, value)
    _same_bytes(pickle.loads(pickle.dumps(loaded)).series, value)


@settings(max_examples=40, deadline=None)
@given(value=series(), extra_rows=st.integers(-1, 2), extra_steps=st.integers(-1, 2))
def test_put_refuses_a_matrix_that_does_not_fit_and_writes_nothing(
    value, extra_rows, extra_steps
):
    rows, steps = value.values.shape
    assume((extra_rows, extra_steps) != (0, 0))
    assume(rows + extra_rows >= 0 and steps + extra_steps >= 0)
    misshapen = CounterTimeSeries(
        value.step_cycles, value.names,
        np.zeros((rows + extra_rows, steps + extra_steps)), value.ipc,
    )
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        with pytest.raises(ValueError, match="cannot hold"):
            store.put("aa0", _stored(misshapen))
        assert len(store) == 0 and store.stats.puts == 0
        assert not [p for p in store.path.rglob("*") if p.is_file()]
