"""The one writer of the program's output files: each is written whole or not at all."""

from __future__ import annotations

import contextlib
import json
import os
import signal


def write(path, data: str | bytes) -> None:
    """Write `data` (text as UTF-8) to `<path>.tmp`, then rename it over `path`: an interrupt
    leaves the old file or the new one, never part of one. No *.json or *.csv glob matches the
    temporary name, and a failed write removes it. No fsync: the rename guards against interrupts.

    On the main thread a SIGTERM is held until the rename is done, then raised again under the
    old handler, so it still ends the process but leaves no `.tmp`. A mask would not do: a
    signal sent to the process goes to any thread that does not block it, such as BLAS's."""
    held: list[int] | None = []
    try:
        old = signal.signal(signal.SIGTERM, lambda signum, frame: held.append(signum))
    except ValueError:  # signal.signal works on the main thread only
        held = None
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    finally:
        if held is not None:
            signal.signal(signal.SIGTERM, signal.SIG_DFL if old is None else old)  # None: set outside Python
            if held:
                signal.raise_signal(signal.SIGTERM)


def write_json(path, obj) -> None:
    write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
