"""Text lines split on LF only, and atomic file writes: a reader finds the
old file or the whole new one."""

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path, binary=False):
    """Write to a temporary file beside ``path`` (UTF-8 with "\\n" line ends
    unless ``binary``). A clean exit moves it onto ``path``; an exception
    removes it and leaves ``path`` as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_lines(path):
    """The lines of UTF-8 file ``path``, split on "\\n" only. A "\\r" and the
    other breaks str.splitlines() knows (\\x85, \\u2028, ...) stay inside the
    line, so any text without a TAB or LF round-trips through a pair TSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
