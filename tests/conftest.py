"""Shared fixtures for the test suite (small, fast objects only)."""

import contextlib

import pytest

from repro.coresim.native import COMPILER_ENV_VAR
from repro.coresim.native import build as native_build
from repro.uarch import core_microarch
from repro.workloads import TraceGenerator, build_program, workload


@pytest.fixture(scope="session")
def gcc_program():
    """A materialised 403.gcc-like synthetic program."""
    return build_program(workload("403.gcc"), seed=11)


@pytest.fixture(scope="session")
def gcc_trace(gcc_program):
    """A short dynamic trace of the gcc-like program."""
    return TraceGenerator(gcc_program, seed=12).generate(6000)


@pytest.fixture(scope="session")
def skylake():
    return core_microarch("Skylake")


@pytest.fixture(scope="session")
def k8():
    return core_microarch("K8")


@pytest.fixture()
def no_compiler():
    """A context manager under which no C compiler is found.

    Inside it every simulation takes the path a host without a compiler
    takes (the scalar pipeline); on exit the native kernel loads again.
    The build layer's memoised state is dropped on the way in and out.
    """

    @contextlib.contextmanager
    def hidden():
        native_build._reset_for_tests()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setenv(COMPILER_ENV_VAR, "")
                yield
        finally:
            native_build._reset_for_tests()

    return hidden
