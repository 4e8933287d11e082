"""Job fingerprints canonicalise exactly as they did before their fast paths.

:func:`frozen_canonical` is a frozen copy of ``repro.runtime.job._canonical``
from before it cached each class's field names and returned exact
primitives early.  A store is content-addressed by these fingerprints, so
any difference in the canonical JSON would turn every stored result into
a miss; the copy pins the JSON byte for byte on every preset, every bug and
generated values that mix the types whose order of checks matters.
"""

import dataclasses
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bugs.memory_bugs import memory_bug_suite
from repro.bugs.registry import core_bug_suite
from repro.runtime.job import _canonical
from repro.uarch.memory_presets import all_memory_microarches
from repro.uarch.presets import all_core_microarches


def frozen_canonical(value: object) -> object:
    """Reduce *value* to JSON-serialisable primitives, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: frozen_canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return [type(value).__name__, fields]
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    if isinstance(value, dict):
        return {str(k): frozen_canonical(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [frozen_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for job hashing")


def _encoded(canonical, value) -> str:
    """The JSON a fingerprint hashes (``job._digest``'s encoding)."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def _assert_same_json(value):
    assert _encoded(_canonical, value) == _encoded(frozen_canonical, value)


@pytest.mark.parametrize("config", all_core_microarches() + all_memory_microarches(),
                         ids=lambda config: config.name)
def test_every_preset(config):
    _assert_same_json(config)


def test_every_bug_in_both_suites():
    bugs = [bug for suite in (core_bug_suite(), memory_bug_suite())
            for variants in suite.values() for bug in variants]
    assert bugs
    for bug in bugs:
        _assert_same_json([type(bug).__name__, bug.info.bug_type, bug.info.params])


class Colour(enum.Enum):
    RED = 1
    BLUE = "blue"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    pass


@dataclasses.dataclass(frozen=True)
class Leaf:
    first: object
    second: object = None


@dataclasses.dataclass
class Pair:
    left: object
    right: object


_SCALARS = st.one_of(
    st.sampled_from([1, 1.0, True, False, 0, 0.0, -0.0, None]),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.text(max_size=4).map(Name),
    st.sampled_from(list(Colour) + list(Level)),
)
_KEYS = st.one_of(st.text(max_size=3), st.integers(-2, 2), st.sampled_from([1.0, True]),
                  st.sampled_from(list(Level)), st.text(max_size=3).map(Name))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=3),
        st.builds(Leaf, inner, inner),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_generated_values(value):
    _assert_same_json(value)


@pytest.mark.parametrize("value", [b"bytes", {1, 2}, object(), Leaf, [Leaf(1, {2.5})]],
                         ids=["bytes", "set", "object", "dataclass-type", "nested-set"])
def test_the_same_type_error(value):
    messages = []
    for canonical in (_canonical, frozen_canonical):
        with pytest.raises(TypeError) as error:
            canonical(value)
        messages.append(str(error.value))
    assert messages[0] == messages[1]
