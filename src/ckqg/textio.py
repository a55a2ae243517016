"""Opening the package's UTF-8 text inputs."""

from __future__ import annotations

import contextlib
import json
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO


@contextlib.contextmanager
def open_text(path: str | Path, error: type[Exception]) -> Iterator[TextIO]:
    """``path`` opened for reading as UTF-8 text. A byte that does not
    decode, wherever the caller's reads meet it, raises ``error`` naming the
    path instead of a bare UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from None


def read_json(path: str | Path, error: type[Exception]):
    """The JSON value that ``path`` holds. Text that is not UTF-8 or not
    JSON raises ``error`` naming the path."""
    with open_text(path, error) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: not valid JSON: {exc}") from None


def read_jsonl(path: str | Path, error: type[Exception]) -> Iterator[tuple[str, object]]:
    """``("path:line", value)`` for each non-blank line of ``path``, in
    order. Text that is not UTF-8 raises ``error`` naming the path, and a
    line that is not JSON raises it naming the line."""
    with open_text(path, error) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{where}: invalid JSON: {exc}") from None
            yield where, value
