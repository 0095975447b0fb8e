"""Test inputs as files: every reader and writer takes the path that the CLI
passes it.

These helpers need no fixture, so Hypothesis tests and module-level data can
call them; their files live in one temporary directory that is removed when
the test process exits.
"""

import atexit
import os
import shutil
import tempfile

from openbook.book import save_book

_DIRECTORY = tempfile.mkdtemp(prefix="openbook-tests-")
atexit.register(shutil.rmtree, _DIRECTORY, ignore_errors=True)


def written(data) -> str:
    """The path of a new file holding ``data``: bytes as given, text as UTF-8
    with its line ends as given."""
    fd, path = tempfile.mkstemp(dir=_DIRECTORY)
    with os.fdopen(fd, "wb") as handle:
        handle.write(data.encode("utf-8") if isinstance(data, str) else data)
    return path


def saved(book) -> str:
    """The text of the book file that save_book writes for ``book``."""
    path = written(b"")
    save_book(book, path)
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()
