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
