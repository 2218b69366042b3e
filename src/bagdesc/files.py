"""Output files that are either complete or absent.

Every file the package writes goes through `atomic_write`: the bytes go to
a temporary sibling, which replaces the target only once it is complete.
A process killed or failing partway leaves the old file, or none, so an
output that exists is whole. There is no fsync: this covers a killed
process, not a power loss.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["atomic_write"]


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temporary sibling of `path` for writing; replace `path` with it
    when the block completes, and remove it when the block raises.

    The temporary name carries the process id, so processes writing the
    same target do not share one temporary file.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, **open_kwargs) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
