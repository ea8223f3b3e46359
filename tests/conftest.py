import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def count_calls(monkeypatch, owner, *names) -> dict[str, int]:
    """Count the calls of each named attribute of ``owner`` (a module or a class).

    Each attribute is replaced, for the test, by a wrapper that counts and then
    calls the original; the returned dict holds the live counts by name.
    """
    counts = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name))
    return counts


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves more threads alive than it found."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running after the test: {left}")
