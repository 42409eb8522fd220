"""Append-only JSONL log, indexed by key, shared by readers and writers.

One record per line. A log reads only what was appended since its last read:
it remembers the file's identity (device, inode) and the byte offset it has
consumed, and starts over when the file is deleted, replaced or shorter than
that offset. (A file deleted and recreated between two reads under the same
inode number, and at least as long, looks appended to.) Reads stop at the
last ``\\n``; an incomplete final line (a torn tail, left by a writer that
died mid-write) is left unread, and its size is kept in ``torn_bytes`` and
logged.

``append`` writes a whole batch of records with one ``write`` and a flush,
holding a thread lock and a POSIX ``flock`` on the file, so writers in
threads and processes never interleave lines. Under that lock it first
truncates a torn tail, so a dead writer's bytes are never glued onto a new
record.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import threading
from pathlib import Path
from typing import Callable

_LOG = logging.getLogger(__name__)


class JsonlLog:
    """Records of one JSONL file in ``index``: ``key(rec) -> value(rec)``,
    the last record of a key winning.

    ``dumps`` encodes one record as one line (without the newline). Readers
    of ``index`` need no lock; ``refresh`` and ``append`` take one.
    """

    def __init__(
        self,
        path,
        key: Callable[[dict], object],
        dumps: Callable[[dict], str],
        value: Callable[[dict], object] = lambda rec: rec,
    ):
        self.path = Path(path)
        self._key, self._value, self._dumps = key, value, dumps
        self._lock = threading.Lock()
        self._identity: tuple[int, int] | None = None
        self._offset = 0
        self.index: dict = {}
        self.torn_bytes = 0
        self.refresh()

    def refresh(self) -> None:
        """Index the complete lines appended since the last read."""
        with self._lock:
            try:
                with open(self.path, "rb") as f:
                    self._consume(f)
            except FileNotFoundError:
                self._restart(None)

    def append(self, records: list[dict]) -> None:
        """Write ``records`` as one batch and index them."""
        if not records:
            return
        data = "".join(self._dumps(rec) + "\n" for rec in records).encode("utf-8")
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as f:
                fcntl.flock(f, fcntl.LOCK_EX)
                try:
                    self._consume(f)
                    if self.torn_bytes:
                        _LOG.warning("%s: cut a torn final line of %d bytes", self.path, self.torn_bytes)
                        f.truncate(self._offset)
                        self.torn_bytes = 0
                    f.write(data)
                    f.flush()
                    self._offset = os.fstat(f.fileno()).st_size
                finally:
                    fcntl.flock(f, fcntl.LOCK_UN)
            for rec in records:
                self.index[self._key(rec)] = self._value(rec)

    def _restart(self, identity: tuple[int, int] | None) -> None:
        self._identity, self._offset, self.index, self.torn_bytes = identity, 0, {}, 0

    def _consume(self, f) -> None:
        """Index the complete lines of open file ``f`` past the offset."""
        st = os.fstat(f.fileno())
        identity = (st.st_dev, st.st_ino)
        if identity != self._identity or st.st_size < self._offset:
            self._restart(identity)
        f.seek(self._offset)
        data = f.read(st.st_size - self._offset)
        end = data.rfind(b"\n") + 1
        torn = len(data) - end
        if torn and torn != self.torn_bytes:
            _LOG.warning("%s: left a torn final line of %d bytes unread", self.path, torn)
        self.torn_bytes = torn
        self._offset += end
        for line in data[:end].split(b"\n"):
            if line.strip():
                rec = json.loads(line)
                self.index[self._key(rec)] = self._value(rec)
