import numpy as np
import pytest

from resilient_sse import gen_random_system


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_system(seed, m=8, n=3):
    return gen_random_system(m, n, np.random.default_rng(seed))


@pytest.fixture
def watch(monkeypatch):
    """watch(owner, name, record=..., into=None) replaces `owner.name` for the test with a
    wrapper that calls it through, returns its result and appends record(args, kwargs, result),
    by default that triple, to `into`, or to a new list; it returns the list, so names watched
    into one list share it in call order."""
    def watch(owner, name, record=lambda args, kwargs, result: (args, kwargs, result), into=None):
        seen, real = [] if into is None else into, getattr(owner, name)

        def watched(*args, **kwargs):
            result = real(*args, **kwargs)
            seen.append(record(args, kwargs, result))
            return result

        monkeypatch.setattr(owner, name, watched)
        return seen
    return watch
