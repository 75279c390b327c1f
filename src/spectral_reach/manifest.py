"""Run manifests and atomic file output.

Every command writes outputs via write-to-temporary-then-rename, plus a
manifest recording the command line, resolved configuration, seeds,
input digests, tool version, and output names.  Manifests contain no
timestamps, so a re-run with identical inputs is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class RunManifest:
    command: list[str]
    config: dict
    seeds: list[int]
    tool_version: str
    input_digests: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    atomic_write_chunks(path, (data,))


def atomic_write_chunks(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks in turn to a temporary file, then rename it over path:
    an iterable that raises, or a failed write, leaves neither file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
