"""The one append-only JSONL journal under batch, tune and serve.

One JSON object per line on one persistent handle.  Opening creates the
parent directory and terminates a torn final line (a writer killed
mid-``write`` leaves a fragment with no newline; the next record would
be glued onto it and both lost).  ``append`` is dumps + write + flush,
plus ``os.fsync`` under ``fsync=True`` — durable before it returns.
``replay`` yields the well-formed dict records of a file, skipping (and
leaving in place) torn, foreign and non-dict lines; a missing file is
empty.  Callers own their record grammar: see "Journals" in DESIGN.md.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["Journal"]


def _line(record: dict) -> bytes:
    return json.dumps(record, default=str).encode("utf-8") + b"\n"


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

    def append(self, record: dict) -> None:
        """Write one record; durable before this returns under ``fsync``."""
        self._fh.write(_line(record))
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    @staticmethod
    def replay(path: str | Path) -> Iterator[dict]:
        """Every well-formed dict record in ``path``, in file order."""
        try:
            fh = open(path, encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return
        with fh:
            for line in fh:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn by a crash mid-write, or foreign
                if isinstance(record, dict):
                    yield record

    def rewrite(self, records: Iterable[dict]) -> None:
        """Atomically replace the contents (compaction): written and
        fsync'd beside the journal, then renamed over it, so a crash — or
        ``records`` raising — leaves the old journal and this handle intact."""
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with tmp.open("wb") as fh:
            for record in records:
                fh.write(_line(record))
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = self.path.open("ab")

    def close(self) -> None:
        self._fh.close()
