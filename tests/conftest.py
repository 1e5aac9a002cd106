import multiprocessing

import pytest

from streamfade import engine


@pytest.fixture
def fork_pools(monkeypatch):
    """The sizes of the fork pools that the test's passes start, on a
    machine of four CPUs."""
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)
    sizes = []
    get_context = multiprocessing.get_context

    class Context:  # records the size of each pool it starts
        def __init__(self, method):
            self.context = get_context(method)

        def Pool(self, workers, *args):
            sizes.append(workers)
            return self.context.Pool(workers, *args)

    monkeypatch.setattr(multiprocessing, "get_context", Context)
    return sizes


@pytest.fixture
def forks(fork_pools, monkeypatch):
    """`fork_pools`, with shares of one tile: a pass of two or more tiles at
    `threads` > 1 forks."""
    monkeypatch.setattr(engine, "MIN_TILES_PER_WORKER", 1)
    return fork_pools
