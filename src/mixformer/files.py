"""The one writer of the program's output files: each is written whole or not at all."""

from __future__ import annotations

import contextlib
import json
import os


def write(path, data: str | bytes) -> None:
    """Write `data` (text as UTF-8) to `<path>.tmp`, then rename it over `path`: an interrupt
    leaves the old file or the new one, never part of one. No *.json or *.csv glob matches the
    temporary name, and a failed write removes it. No fsync: the rename guards against interrupts."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path, obj) -> None:
    write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
