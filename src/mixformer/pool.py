"""The process pool behind `sweep --jobs N` and gradcheck's two model-step checks.

`concurrent.futures` (and `logging` with it) and `multiprocessing` are
imported inside `fork_pool`, so that commands that never build a pool, such
as `train` and `eval`, do not pay for them at startup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import concurrent.futures


def fork_pool(max_workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """A process pool whose workers are forked from this process.

    Workers fork at the first submitted call and inherit the parent's memory:
    module globals, monkeypatched attributes and the allocator settings of
    `cli.main` arrive without pickling, and only the submitted calls and their
    results cross the pipe. The start method is named here rather than left
    to the platform default, which Python 3.14 turns into forkserver on Linux.
    """
    import concurrent.futures
    import multiprocessing

    return concurrent.futures.ProcessPoolExecutor(
        max_workers, mp_context=multiprocessing.get_context("fork")
    )
