"""Text lines split on LF only, pair lines that read back as written, and
atomic file writes: a reader finds the old file or the whole new one."""

import os
from contextlib import contextmanager

from .errors import ValidationError


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


def write_pair_lines(fh, pairs):
    """Write each (x, y) text pair as an ``x<TAB>y`` line; a text holding a TAB
    or an LF would not read back, so it raises ValidationError naming the pair."""
    for i, (x, y) in enumerate(pairs):
        if "\t" in x + y or "\n" in x + y:
            raise ValidationError(f"pair {i}: a text holds a TAB or an LF")
        fh.write(f"{x}\t{y}\n")
