"""Run a command's work on every CPU, in forked shares, with unchanged bytes.

A caller splits its work into shares whose outputs, written one after
another, are its bytes: predict's CSV text, the float64 rows that
`load_csv` parses into one matrix, or sweep's fixed-size record per
grid cell, which sweep puts back in grid order. `write` runs share 0 in
the calling process and each other share in a forked child, then
appends each child's bytes in share order, so the bytes do not depend
on the number of workers. Without `os.fork` (or `os.sched_getaffinity`)
`count` gives one share and nothing is forked; where a fork fails, that
share and the later ones run in the calling process.

Failures follow one rule: where a worker does not exit 0 (it raised,
died or could not write its file), the calling process does its share
in its place. No exception crosses processes. `gather` gives None when
the work raised here, and its caller does it all again in one process.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, BinaryIO, NoReturn, TypeVar

if TYPE_CHECKING:
    from _typeshed import SupportsWrite

Share = TypeVar("Share")

# Fewest values (cells written) a share must hold: a fork, exit and reap
# of a 60 MB process costs a few milliseconds.
_MIN_SHARE_VALUES = 100_000


def count(items: int, values_per_item: int) -> int:
    """Number of shares to split ``items`` items into: one per CPU in this
    process's affinity mask, but none with fewer than `_MIN_SHARE_VALUES`
    values, no more than ``items`` and 1 where `os.fork` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, items, items * values_per_item // _MIN_SHARE_VALUES))


def write(
    out: SupportsWrite[bytes],
    shares: Sequence[Share],
    work: Callable[[Share, SupportsWrite[bytes]], None],
    tmpdir: str,
) -> None:
    """Write ``work(share, file)`` for every share to ``out``, in share order.

    Each share after the first goes to a forked child that writes an
    unnamed temporary file in ``tmpdir`` (predict's output directory, so
    its text waits on the disk that takes it; the default temporary
    directory under `gather`), until a temporary file or a fork cannot be
    made. Then, in share order, the parent copies the file of each child
    that exited 0 to ``out`` and runs every other share (share 0, one
    whose child did not exit 0, one that no child took) here, straight
    into ``out``, which then holds exactly the shares before it. On any
    error or interrupt here every child still running is killed and
    reaped."""
    mask = os.sched_getaffinity(0) if len(shares) > 1 else set()
    cpus = sorted(mask)
    files: list[BinaryIO] = []
    unreaped: list[int] = []
    try:
        if mask:
            _move_to(cpus[0], mask)
        for k, share in enumerate(shares[1:], 1):
            try:
                file = tempfile.TemporaryFile(dir=tmpdir)
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:  # no process to spare (EAGAIN, ENOMEM)
                file.close()
                break
            if pid == 0:
                _child(work, share, file, cpus[k % len(cpus)], mask)
            files.append(file)
            unreaped.append(pid)
        for k, share in enumerate(shares):
            if 0 < k <= len(files):  # a child's share
                _, status = os.waitpid(unreaped[0], 0)
                unreaped.pop(0)  # only once reaped: an interrupt in waitpid kills it
                if os.waitstatus_to_exitcode(status) == 0:
                    files[k - 1].seek(0)
                    shutil.copyfileobj(files[k - 1], out)
                    continue
            work(share, out)
    finally:
        if unreaped:
            import signal  # only a failure needs it; start-up does not pay for it

            for pid in unreaped:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        for file in files:
            file.close()


def gather(
    shares: Sequence[Share], work: Callable[[Share, SupportsWrite[bytes]], None]
) -> memoryview | None:
    """The bytes that `write` gives for ``shares``, with the workers' files
    in the default temporary directory; or None, and the caller does all
    its work in one process, for one share or when the work raised an
    `Exception` in this process. Interrupts pass through."""
    if len(shares) < 2:
        return None
    out = io.BytesIO()
    try:
        write(out, shares, work, tempfile.gettempdir())
    except Exception:  # done again in one process, whose result is the caller's
        return None
    return out.getbuffer()


def _move_to(cpu: int, mask: set[int]) -> None:
    """Run this process on ``cpu``, then allow it ``mask`` again. The
    kernel may leave a fresh fork on its parent's CPU while another CPU
    idles; once moved, each share keeps its own CPU unless the kernel
    needs to move it."""
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, mask)
    except OSError:  # a CPU that this process may no longer use
        pass


def _child(
    work: Callable[[Share, SupportsWrite[bytes]], None],
    share: Share,
    file: BinaryIO,
    cpu: int,
    mask: set[int],
) -> NoReturn:
    """Run one share on ``cpu`` in a forked child, which never returns into
    its caller: exit 0 once ``file`` holds the share's bytes, 1 on
    anything else."""
    code = 1
    try:
        _move_to(cpu, mask)
        work(share, file)
        file.flush()
        code = 0
    finally:
        os._exit(code)
