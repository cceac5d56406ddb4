"""The fork-based map behind `sweep --jobs N`, built on `os.fork` and pipes
alone: neither `concurrent.futures` nor `multiprocessing` is imported."""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys


def fork_map(fn, items, jobs: int):
    """Yield `fn(item)` for each item, in item order, from `n = min(jobs, len(items))` processes.

    Item i runs in process i % n. Process 0 is the caller, which runs its items
    as their results are asked for. The other n - 1 fork at the first request,
    inherit the caller's memory (module globals, patched attributes, allocator
    settings), and send one pickled `list(fn(item))` per item down a pipe. With
    n = 1 the caller runs every item and nothing forks, as `map` would.

    Close the generator on every exit path: it closes the pipes and reaps the
    children. Each child finishes the item it is running, its send fails and it
    exits, so items not yet started are dropped. A child gets SIGKILL when the
    thread that forked it ends, so an interrupt during the reap can end the
    caller at once. A child that exits before sending raises a RuntimeError
    naming its pid and exit status.
    """
    items = list(items)
    n = min(jobs, len(items))
    caller, readers, pids = os.getpid(), [], {}
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, items[k::n], w, [r, *(f.fileno() for f in readers)], caller)
            os.close(w)
            readers.append(os.fdopen(r, "rb"))
            pids[k] = pid
        for i, item in enumerate(items):
            if i % n == 0:
                yield fn(item)
                continue
            try:
                result = pickle.load(readers[i % n - 1])
            except (EOFError, pickle.UnpicklingError):
                pid = pids.pop(i % n)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"fork_map child {pid} exited with status {status} "
                                   f"before sending the result of item {i}") from None
            yield result
    finally:
        for reader in readers:
            reader.close()
        for pid in pids.values():
            os.waitpid(pid, 0)


def _child(fn, items, w: int, inherited: list[int], caller: int) -> None:
    """Run `items` and send their results down `w`; leave only through `os._exit`."""
    code = 1
    try:
        for fd in inherited:  # a read end left open here would keep a sibling's sends from failing
            os.close(fd)
        try:
            prctl = ctypes.CDLL(None).prctl
        except (AttributeError, TypeError, OSError):  # no prctl, as on macOS
            pass
        else:
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG: SIGKILL this child when the caller dies
        if os.getppid() != caller:  # the caller died before prctl
            return
        with os.fdopen(w, "wb") as out:
            for item in items:
                pickle.dump(list(fn(item)), out)
                out.flush()
        code = 0
    except (BrokenPipeError, KeyboardInterrupt):
        pass
    except BaseException:  # reported here: a forked child never unwinds into the caller's stack
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)
