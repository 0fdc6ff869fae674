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
    unless a test sets it: it runs batches in this process and records each
    pool's size, the tasks mapped and the chunksize they were mapped with."""
    record = SimpleNamespace(sizes=[], tasks=[], chunksizes=[], cpus=8)

    class SerialPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            record.tasks.extend(tasks)
            record.chunksizes.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(sse, "_process_pool", SerialPool)
    monkeypatch.setattr(sse.os, "sched_getaffinity", lambda pid: set(range(record.cpus)), raising=False)
    return record
