from types import SimpleNamespace

import pytest
from hypothesis import settings

from ssesim import sse

# Examples run numerical kernels whose first call loads scipy or fills caches,
# so a per-example deadline would fail on timing alone.
settings.register_profile("ssesim", deadline=None)
settings.load_profile("ssesim")


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand-in for the ensemble process pool on a machine of `cpus` CPUs, 8
    unless a test sets it: it runs ranges in this process and records each
    pool's size and the tasks mapped."""
    record = SimpleNamespace(sizes=[], tasks=[], cpus=8)

    class SerialPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            record.tasks.extend(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(sse, "_process_pool", SerialPool)
    monkeypatch.setattr(sse.os, "sched_getaffinity", lambda pid: set(range(record.cpus)), raising=False)
    return record
