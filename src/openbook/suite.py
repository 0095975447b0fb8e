"""EPD test-suite loading.

A suite line is the first four FEN fields plus optional semicolon-
terminated opcodes. Only the ``id`` opcode is used; everything else is
ignored. Lines without an id get "pos<N>" in file order.
"""

from __future__ import annotations

import re
from typing import Iterable, List, NamedTuple, Union

from . import rules


class SuiteError(ValueError):
    """Raised for malformed, empty, or duplicate-id suite files."""


class SuiteEntry(NamedTuple):
    position_id: str
    position: rules.Position
    side_to_move: str  # "w" or "b"
    key: str  # rules.position_key(position), the book key it is looked up by


_ID_RE = re.compile(r'\bid\s+(?:"([^"]*)"|(\S+?));')


def parse_epd_suite(source: Union[str, Iterable[str]]) -> List[SuiteEntry]:
    """Parse an EPD file (path or iterable of lines) into suite entries."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            try:
                lines = handle.readlines()
            except UnicodeDecodeError as exc:
                raise SuiteError(f"not UTF-8 text: {exc}") from None
    else:
        lines = list(source)
    entries: List[SuiteEntry] = []
    seen_ids = set()
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) < 4:
            raise SuiteError(f"line {number}: need 4 FEN fields, got {len(fields)}")
        try:
            position = rules.parse_fen(" ".join(fields[:4]))
        except rules.FenError as exc:
            raise SuiteError(f"line {number}: {exc}") from exc
        opcode_text = " ".join(fields[4:])
        match = _ID_RE.search(opcode_text + ";" if opcode_text and
                              not opcode_text.endswith(";") else opcode_text)
        position_id = (match.group(1) or match.group(2)) if match else f"pos{len(entries) + 1}"
        if position_id in seen_ids:
            raise SuiteError(f"line {number}: duplicate id {position_id!r}")
        seen_ids.add(position_id)
        entries.append(SuiteEntry(position_id, position, position.turn,
                                  rules.position_key(position)))
    if not entries:
        raise SuiteError("empty suite")
    return entries
