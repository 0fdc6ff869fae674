from types import SimpleNamespace

import pytest

from ssesim import sse


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand-in for the ensemble process pool on an 8-CPU machine: it runs
    blocks in this process and records each pool's size and the tasks mapped."""
    record = SimpleNamespace(sizes=[], tasks=[])

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

    monkeypatch.setattr(sse, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sse.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    return record
