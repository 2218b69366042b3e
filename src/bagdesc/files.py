"""Output files that are either complete or absent.

Every file the package writes goes through `atomic_write`: the bytes go to
a temporary sibling, which replaces the target only once it is complete.
A process killed or failing partway leaves the old file, or none, so an
output that exists is whole. There is no fsync: this covers a killed
process, not a power loss.

An existing target is exchanged with the finished temporary (Linux
`renameat2` with `RENAME_EXCHANGE`, one atomic step), which is then
unlinked: renaming over an existing file makes ext4 (`auto_da_alloc`) write
the new data to disk first, about 1 s per 55 MB. Where the exchange cannot
run, `os.replace` moves the temporary in. Neither syncs, so after a power
loss an output may read as old or empty, which the loaders reject.
"""

from __future__ import annotations

import contextlib
import functools
import os
from pathlib import Path

__all__ = ["atomic_write"]

_AT_FDCWD = -100
_RENAME_EXCHANGE = 2  # <linux/fs.h>


@functools.cache
def _renameat2():
    """libc's `renameat2`, or None where the platform has none."""
    import ctypes

    try:
        fn = ctypes.CDLL(None, use_errno=True).renameat2
    except (OSError, TypeError, AttributeError):  # TypeError: CDLL(None) on Windows
        return None
    fn.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint]
    fn.restype = ctypes.c_int
    return fn


def _exchanged(temporary: Path, path: Path) -> bool:
    """Swap `temporary` with the file at `path`; False, touching neither,
    where there is no file there or the swap cannot run."""
    if not os.path.lexists(path) or os.path.isdir(path):
        return False
    renameat2 = _renameat2()
    return renameat2 is not None and renameat2(
        _AT_FDCWD, os.fsencode(temporary), _AT_FDCWD, os.fsencode(path), _RENAME_EXCHANGE
    ) == 0


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temporary sibling of `path` for writing; replace `path` with it
    when the block completes (exchanging an existing file, else `os.replace`),
    and remove it when the block raises.

    The temporary name carries the process id, so processes writing the
    same target do not share one temporary file.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, **open_kwargs) as fh:
            yield fh
        if _exchanged(temporary, path):
            temporary.unlink()  # the old file
        else:
            os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
