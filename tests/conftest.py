import pytest

from hallzero import oracle


@pytest.fixture
def spied_calls():
    """`spied_calls(run, *names)` runs `run()` with the named `hallzero.oracle`
    functions wrapped to record each call's arguments, and returns one list
    of argument tuples per name, then the result, with the wrappers gone."""

    def spy(real, seen):
        return lambda *args: seen.append(args) or real(*args)

    def spied(run, *names):
        calls = [[] for _ in names]
        with pytest.MonkeyPatch.context() as patch:
            for name, seen in zip(names, calls):
                patch.setattr(oracle, name, spy(getattr(oracle, name), seen))
            return (*calls, run())

    return spied
