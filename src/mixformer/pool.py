"""The process pool behind `sweep --jobs N` and gradcheck's two model-step checks."""

from __future__ import annotations

import concurrent.futures


def fork_pool(max_workers: int, **kwargs) -> concurrent.futures.ProcessPoolExecutor:
    """A process pool whose workers are forked from this process.

    Forked workers inherit the parent's memory: module globals, monkeypatched
    attributes and initializer arguments arrive without pickling, and only the
    submitted calls and their results cross the pipe. The start method is
    named here rather than left to the platform default, which Python 3.14
    turns into forkserver on Linux.
    """
    import multiprocessing  # imported here so that startup does not pay for it

    return concurrent.futures.ProcessPoolExecutor(
        max_workers, mp_context=multiprocessing.get_context("fork"), **kwargs
    )
