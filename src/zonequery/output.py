"""Where bytes and work go: the one opener behind every file zonequery
writes, the one CSV writer, and the one fork/pipe/reap helper that the CSV
writer's format processes and ingest's parse processes share.

The writer reads the formatter and its chunk size through the ``digits``
module, so that both see one ``_CHUNK_ROWS``.
"""

from __future__ import annotations

import os
import stat
import sys
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NoReturn, Sequence

from . import digits

# chunks of rows with a %r field from which _write_csv forks; with fewer,
# forking lost time on some formats (see CHANGES.md)
_FORK_CHUNKS = 4


@contextmanager
def _open_output(path: str | Path | None, mode: str = "w") -> Iterator[IO]:
    """A handle to write one output to, in text ("w", UTF-8 with "\\n" line
    ends) or binary ("wb") ``mode``: stdout for a path of None or "-", else
    the file, created if missing. Every file zonequery writes is opened here.

    An existing file is overwritten in place and, for a regular file, cut to
    the bytes written, so it ends up as a fresh write would leave it. A
    process killed before the cut (or a power loss) can leave the old file's
    tail after the new bytes. Opening with O_TRUNC, and also writing a
    temporary file and renaming it over the old one, cost far more on some
    filesystems (measured on ext4 mounted with discard; see CHANGES.md).
    Devices and FIFOs, such as /dev/null, are written but not cut. An OSError
    that names no file, such as a full disk on write, is raised again naming
    ``path``, or "<stdout>"; stdout is flushed here so that its errors are
    raised here too."""
    to_stdout = path is None or path == "-"
    text = {"encoding": "utf-8", "newline": "\n"} if mode == "w" else {}
    try:
        if to_stdout:
            out = sys.stdout if mode == "w" else sys.stdout.buffer
            yield out
            out.flush()
            return
        # O_BINARY (Windows only): no newline translation below Python's own
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, mode, **text) as fh:
            try:
                yield fh
                fh.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        if exc.filename is not None or exc.errno is None:
            raise
        name = "<stdout>" if to_stdout else os.fspath(path)
        raise OSError(exc.errno, exc.strerror, name) from exc


def _write_csv(path: str | Path | None, header: str, row_format: str, columns) -> None:
    """Write a CSV: ``header``, then ``columns`` formatted row by row with
    ``row_format``; to stdout for a path of None or "-". Catalogs and query
    results are both written here.

    Rows with a ``%r`` field, such as a catalog's, in _FORK_CHUNKS chunks or
    more are formatted by forked processes (``_forked``), the chunks dealt
    to them in turn; this process writes each chunk in order as it comes, so
    the bytes are those of one process. Rows of only ``%d`` and ``%.12g``
    fields, whose digits cost less, are formatted here."""
    chunks = -(-len(columns[0]) // digits._CHUNK_ROWS) if columns else 0
    with _open_output(path) as fh:
        fh.write(header)
        forks = 1 if "%r" not in row_format or chunks < _FORK_CHUNKS else _process_count()
        if forks < 2:
            fh.writelines(digits._format_rows(row_format, columns))
            return
        forks = min(forks, chunks)
        jobs = [partial(digits._format_rows, row_format, columns, k, forks)
                for k in range(forks)]
        name = "<stdout>" if path is None or path == "-" else path
        with _forked(jobs, OSError, f"{name}: a format process") as results:
            fh.writelines(results)


def _process_count() -> int:
    """The CPUs this process may run on; 1 without ``os.fork`` or while
    another thread runs (a forked child could wait forever on its locks)."""
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


@contextmanager
def _forked(jobs: Sequence[Callable[[], Iterable]], error: type[Exception], what: str
            ) -> Iterator[Iterator]:
    """Run each job in a forked child of its own (make ``_process_count``
    jobs at most); the ``with`` block gets their results in turn: each job's
    first in job order, then each job's second, and so on.

    A child pickles each result, or the error its job raised, to a pipe as
    soon as it has it, so a blocked pipe holds it to about one result. An
    error result is raised here in its turn; a child that dies raises
    ``error("<what> ended without a result (<how>)")``. Every child has been
    reaped and every pipe closed when the block is left, on any path. The
    standard streams are flushed before the forks, and a child leaves only
    through ``os._exit``, so no buffer it inherits is written twice."""
    import pickle

    sys.stdout.flush()
    sys.stderr.flush()
    pids: list[int] = []  # children not yet reaped
    pipes: list[IO[bytes]] = []  # the read end of each child's pipe

    def results() -> Iterator:
        turn = list(zip(pids, pipes))
        while turn:
            for pid, pipe in list(turn):
                try:
                    result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the child has closed its pipe
                    status = os.waitpid(pid, 0)[1]
                    pids.remove(pid)
                    turn.remove((pid, pipe))
                    if status:
                        how = (f"killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                               else f"exit status {os.waitstatus_to_exitcode(status)}")
                        raise error(f"{what} ended without a result ({how})") from None
                    continue
                if isinstance(result, BaseException):
                    raise result
                yield result

    try:
        for job in jobs:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    for pipe in pipes:  # with no reader left, a write fails at once
                        pipe.close()
                    _send(w, job)
            finally:
                os.close(w)
            pids.append(pid)
        yield results()
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            import signal

            for pid in pids:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def _send(w: int, job: Callable[[], Iterable]) -> NoReturn:
    """In a forked child: pickle each result of ``job``, or its error, to
    the pipe ``w``; exit with status 0 once all of it is written."""
    import pickle

    code = 1
    try:
        with open(w, "wb") as pipe:
            try:
                for result in job():
                    pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
            except BaseException as exc:  # an interrupt too: the parent raises it
                pickle.dump(exc, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
