"""The one atomic file writer behind every on-disk artifact.

Checkpoints, event-log rewrites, disk-cache entries, worker status files,
campaign snapshots and the workload/rule directories all land through
:func:`write_atomic`: readers (sibling workers, a resumed campaign, the
next CLI run) see either the previous file or the complete new one, never
a torn write. Callers own their serialisation — the bytes handed in are
exactly the bytes on disk — and wrap :class:`OSError` in their own typed
errors.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path
from typing import Union


def write_atomic(path: Union[str, Path], data: bytes, *, fsync: bool = True) -> None:
    """Replace ``path`` with ``data`` in one step.

    The bytes go to a uniquely named temp file in the same directory
    (hidden and ``.tmp``-suffixed, so ``*.json`` globs never pick it up;
    created with the process umask like a plain ``open``), are fsync'd
    unless ``fsync=False``, and are renamed over ``path``. Concurrent
    writers to one path never share a temp file, and any failure unlinks
    the temp file before re-raising.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    handle = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
            if fsync:
                # Without the fsync a crash can make the rename durable
                # while the contents are not, leaving an empty file.
                stream.flush()
                os.fsync(stream.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
