"""Ordered map over worker processes that fails loudly when a worker dies."""
from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Iterable, Iterator

from .errors import WorkerDied


def _apply(fn: Callable, block: list) -> list:
    return [fn(item) for item in block]


def ordered_map(fn: Callable, items: Iterable, workers: int, chunk: int) -> Iterator:
    """fn(item) for every item, lazily and in input order.

    With more than one worker, blocks of ``chunk`` items go to forked
    worker processes, at most 2 * workers blocks in flight, so memory
    stays bounded over ranges of any length.  A worker that dies raises
    WorkerDied (chained to the pool's BrokenProcessPool) instead of hanging.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    # Imported here: serial runs would otherwise pay for them at start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    items = iter(items)
    pending = deque()
    try:
        while block := list(islice(items, chunk)):
            pending.append(pool.submit(_apply, fn, block))
            if len(pending) >= 2 * workers:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a worker process died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)
