"""The one append-only JSONL journal under batch, tune and serve.

One JSON object per line on one persistent handle.  Opening creates the
parent directory and terminates a torn final line (a writer killed
mid-``write`` leaves a fragment with no newline; the next record would
be glued onto it and both lost).  ``append`` is dumps + write + flush,
plus ``os.fsync`` under ``fsync=True`` — durable before it returns.
``replay`` yields the well-formed dict records of a file, skipping (and
leaving in place) torn, foreign and non-dict lines; a missing file is
empty.  Every line written or replayed has a byte *span* ``(offset,
length)``, and :meth:`Journal.read` reads one line back by its span, so
a caller can keep a large record on disk instead of on the heap.
Callers own their record grammar: see "Journals" in DESIGN.md.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["Journal"]

#: ``(offset, length)`` of one journal line, its newline included.
Span = tuple[int, int]


def _line(record: dict) -> bytes:
    return json.dumps(record, default=str).encode("utf-8") + b"\n"


def _parse(line: bytes):
    return json.loads(line.decode("utf-8", errors="replace"))


class Journal:
    """Append handle on a JSONL journal (see module docstring)."""

    def __init__(self, path: str | Path, *, fsync: bool):
        self.path = Path(path)
        self._fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("ab+")
        if self._fh.tell():
            self._fh.seek(-1, os.SEEK_END)
            if self._fh.read(1) != b"\n":
                self._fh.write(b"\n")  # append mode: lands at end of file

    def append(self, record: dict) -> Span:
        """Write one record and return its span; durable before this
        returns under ``fsync``."""
        line = _line(record)
        offset = self._fh.tell()
        self._fh.write(line)
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        return offset, len(line)

    def read(self, span: Span):
        """The record on the line at ``span`` (one ``pread``)."""
        offset, length = span
        return _parse(os.pread(self._fh.fileno(), length, offset))

    @staticmethod
    def replay(path: str | Path) -> Iterator[tuple[dict, Span]]:
        """Every well-formed dict record in ``path`` with its span, in
        file order."""
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return
        offset = 0
        with fh:
            for line in fh:
                span = (offset, len(line))
                offset += len(line)
                try:
                    record = _parse(line)
                except ValueError:
                    continue  # torn by a crash mid-write, or foreign
                if isinstance(record, dict):
                    yield record, span

    def rewrite(self, records: Iterable[dict]) -> list[Span]:
        """Atomically replace the contents (compaction) and return the
        new span of each record: written and fsync'd beside the journal,
        then renamed over it, so a crash — or ``records`` raising — leaves
        the old journal and this handle intact (``records`` may still
        :meth:`read` the old contents while the new file is written)."""
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        spans = []
        with tmp.open("wb") as fh:
            for record in records:
                line = _line(record)
                spans.append((fh.tell(), len(line)))
                fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = self.path.open("ab+")
        return spans

    def close(self) -> None:
        self._fh.close()
