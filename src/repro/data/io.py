"""Reading and writing transaction databases in the formats of the era.

Supported formats:

* **FIMI ``.dat``** — one transaction per line, whitespace-separated item
  ids (the format of the FIMI'03/'04 repository the paper's references
  [4], [10] evaluate on).  Items parse to ``int`` when possible, else stay
  strings.
* **basket CSV** — ``tid,item`` pairs, one row per (transaction, item)
  occurrence; the long format relational databases export.

Both readers accept plain or gzip-compressed files (by extension).

An integer ``.dat`` file — made only of ASCII digits, spaces, tabs and
line breaks, with no id longer than 18 digits; a ``.gz`` one is
decompressed whole in memory first — is parsed in bulk: :func:`read_dat`
returns a database backed by an item-id column and row offsets, and
builds the frozensets only if something iterates it.  Every other file
(a truncated or corrupt gzip stream, signed or non-integer tokens,
garbage bytes) goes through the line tokeniser.  Both routes give the
same transactions and the same :class:`ParseReport` counts.

Robust parsing
--------------
Real dumps are dirty: binary junk spliced into text, truncated gzip
streams, malformed rows.  By default the readers are **tolerant** — bad
lines are skipped and *counted* rather than aborting a scan halfway
through a multi-gigabyte file; the ``*_report`` variants return a
:class:`ParseReport` describing exactly what was dropped.  Pass
``strict=True`` to raise :class:`~repro.errors.DatasetError` on the first
defect instead (the right mode for curated benchmark inputs, where any
damage means the file is wrong).
"""

from __future__ import annotations

import gzip
import io
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, TextIO

from repro.data.transaction_db import TransactionDatabase
from repro.errors import DatasetError

__all__ = [
    "ParseReport",
    "read_dat",
    "read_dat_report",
    "write_dat",
    "read_basket_csv",
    "read_basket_csv_report",
    "write_basket_csv",
    "iter_dat_lines",
    "iter_dat_stream",
]

#: Cap on per-line error messages kept in a :class:`ParseReport` — the
#: counts stay exact, but a million-line garbage file should not grow a
#: million-entry list.
MAX_REPORT_ERRORS = 20


@dataclass
class ParseReport:
    """What a tolerant read skipped, and why.

    ``n_lines`` counts every line seen, ``n_transactions`` the ones that
    produced data, ``n_skipped`` the ones dropped as malformed.
    ``truncated`` is set when the stream itself died mid-scan (truncated
    or corrupt gzip, I/O error after a successful open): everything read
    up to that point is kept.  ``errors`` holds the first
    :data:`MAX_REPORT_ERRORS` defect descriptions.
    """

    path: str
    n_lines: int = 0
    n_transactions: int = 0
    n_skipped: int = 0
    truncated: bool = False
    errors: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        """True when the file parsed clean end to end."""
        return self.n_skipped == 0 and not self.truncated

    def record(self, message: str) -> None:
        self.n_skipped += 1
        if len(self.errors) < MAX_REPORT_ERRORS:
            self.errors.append(message)

    def __repr__(self) -> str:
        state = "clean" if self.ok() else (
            f"skipped={self.n_skipped}" + (", truncated" if self.truncated else "")
        )
        return (
            f"ParseReport({self.path!r}, lines={self.n_lines}, "
            f"transactions={self.n_transactions}, {state})"
        )


def _open_text(path: str | Path, mode: str) -> TextIO:
    path = Path(path)
    # readers decode with errors="replace" so binary junk surfaces as
    # U+FFFD on the offending *line* instead of a UnicodeDecodeError that
    # kills the whole scan; the per-line garbage check spots the marker
    errors = "replace" if mode == "r" else "strict"
    if path.suffix == ".gz":
        return io.TextIOWrapper(
            gzip.open(path, mode + "b"), encoding="utf-8", errors=errors
        )
    return open(path, mode + "t", encoding="utf-8", errors=errors)


def _parse_token(token: str) -> Hashable:
    try:
        return int(token)
    except ValueError:
        return token


def _is_garbage(line: str) -> bool:
    return "�" in line or "\x00" in line


def _iter_dat_fh(
    fh: TextIO, label: str, strict: bool, report: ParseReport
) -> Iterator[tuple[Hashable, ...]]:
    """The shared ``.dat`` parse loop over an already-open text handle.

    Reads strictly forward — never seeks — so the same loop serves
    rewindable files and one-shot streams (stdin, sockets) alike.
    """
    lines = iter(fh)
    while True:
        try:
            line = next(lines)
        except StopIteration:
            break
        except (EOFError, OSError) as exc:
            if strict:
                raise DatasetError(
                    f"{label}: stream truncated or corrupt: {exc}"
                ) from exc
            report.truncated = True
            report.record(f"stream truncated or corrupt: {exc}")
            break
        report.n_lines += 1
        if _is_garbage(line):
            if strict:
                raise DatasetError(
                    f"{label}:{report.n_lines}: line contains undecodable bytes"
                )
            report.record(f"line {report.n_lines}: undecodable bytes")
            continue
        tokens = line.split()
        if not tokens:
            continue
        report.n_transactions += 1
        # FIMI files are all-integer: one C-level pass, and only a line
        # that fails it pays the per-token fallback
        try:
            items = tuple(map(int, tokens))
        except ValueError:
            items = tuple(map(_parse_token, tokens))
        yield items


def iter_dat_lines(
    path: str | Path,
    *,
    strict: bool = False,
    report: ParseReport | None = None,
) -> Iterator[tuple[Hashable, ...]]:
    """Stream transactions from a FIMI ``.dat`` file without materialising.

    Blank lines are skipped (some FIMI dumps include them); a line of only
    whitespace is treated as blank rather than as an empty transaction.
    Lines containing undecodable bytes are skipped and counted into
    ``report`` (raised as :class:`DatasetError` under ``strict``), and a
    stream that dies mid-scan (truncated gzip) ends the iteration with
    ``report.truncated`` set instead of crashing.
    """
    if report is None:
        report = ParseReport(path=str(path))
    try:
        fh = _open_text(path, "r")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        yield from _iter_dat_fh(fh, str(path), strict, report)


class _ConcatReader(io.RawIOBase):
    """A forward-only raw reader that replays consumed head bytes first.

    Gzip detection on an unseekable stream must *consume* the two magic
    bytes to look at them; this shim splices them back in front of the
    remaining stream so the decoder sees the byte sequence intact —
    without ever calling ``seek``.
    """

    def __init__(self, head: bytes, stream):
        self._head = head
        self._stream = stream

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self._head:
            n = min(len(buffer), len(self._head))
            buffer[:n] = self._head[:n]
            self._head = self._head[n:]
            return n
        data = self._stream.read(len(buffer))
        if not data:
            return 0
        buffer[: len(data)] = data
        return len(data)


#: Gzip member magic — the two bytes peeked for stream auto-detection.
_GZIP_MAGIC = b"\x1f\x8b"


def iter_dat_stream(
    stream,
    *,
    strict: bool = False,
    report: ParseReport | None = None,
    compression: str = "auto",
    label: str = "<stream>",
) -> Iterator[tuple[Hashable, ...]]:
    """Stream transactions from an **unseekable** file object, single pass.

    Accepts a text-mode or binary-mode stream (``sys.stdin``,
    ``sys.stdin.buffer``, a socket ``makefile``, a pipe).  The stream is
    read strictly forward — never seeked, never rewound, never buffered
    whole — so arbitrarily long feeds ingest in constant memory.

    ``compression`` applies to binary streams: ``"auto"`` (default)
    peeks two bytes for the gzip magic and splices them back, ``"gzip"``
    forces decompression, ``"none"`` forces plain text.  Text-mode
    streams are already decoded and are consumed as-is.  Semantics match
    :func:`iter_dat_lines`: tolerant by default with every defect counted
    in ``report`` (truncated gzip ends iteration with
    ``report.truncated``), ``strict=True`` raises on the first defect.
    """
    if compression not in ("auto", "gzip", "none"):
        raise DatasetError(
            f"compression must be 'auto', 'gzip' or 'none', got {compression!r}"
        )
    if report is None:
        report = ParseReport(path=label)
    probe = stream.read(0)
    if isinstance(probe, str):
        # already-decoded text: compression is the transport's business
        yield from _iter_dat_fh(stream, label, strict, report)
        return
    if compression == "auto":
        head = stream.read(len(_GZIP_MAGIC))
        gzipped = head.startswith(_GZIP_MAGIC)
    else:
        head = b""
        gzipped = compression == "gzip"
    raw = io.BufferedReader(_ConcatReader(head, stream))
    binary = gzip.GzipFile(fileobj=raw, mode="rb") if gzipped else raw
    fh = io.TextIOWrapper(binary, encoding="utf-8", errors="replace")
    yield from _iter_dat_fh(fh, label, strict, report)


def read_dat(path: str | Path, *, strict: bool = False) -> TransactionDatabase:
    """Load a FIMI ``.dat`` (optionally ``.dat.gz``) file.

    Tolerant by default (garbage lines skipped, truncated streams yield
    what was readable); ``strict=True`` raises on any defect.  Use
    :func:`read_dat_report` when you need to know what was skipped.
    """
    return read_dat_report(path, strict=strict)[0]


def read_dat_report(
    path: str | Path, *, strict: bool = False
) -> tuple[TransactionDatabase, ParseReport]:
    """Like :func:`read_dat`, returning the :class:`ParseReport` too."""
    report = ParseReport(path=str(path))
    db = _read_integer_dat(path, report)
    if db is None:
        db = TransactionDatabase(iter_dat_lines(path, strict=strict, report=report))
    return db, report


#: The bytes an integer ``.dat`` file is made of.
_INTEGER_DAT_BYTES = b"0123456789 \t\r\n"

#: Longest id the bulk reader parses: every 18-digit number fits int64.
_MAX_DIGITS = 18


def _read_integer_dat(path: str | Path, report: ParseReport):
    """An integer ``.dat`` file as a column-backed database, in bulk.

    A ``.gz`` file is decompressed whole in memory first.  Returns ``None``
    (and leaves ``report`` untouched) when the file is not all digits and
    whitespace, holds an id longer than :data:`_MAX_DIGITS`, or is a
    truncated or corrupt gzip stream; the caller then runs the tokeniser,
    which keeps what is readable and counts the defects.  Line breaks
    split the way text mode splits them (CRLF and lone CR count as one
    break), blank lines are not transactions, and a transaction's
    duplicate ids collapse.
    """
    import numpy as np

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if Path(path).suffix == ".gz":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error):
            return None
    if data.translate(None, _INTEGER_DAT_BYTES):
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # token bounds from the digit mask: every allowed non-digit is a space
    digit = np.zeros(len(data) + 2, bool)
    digit[1:-1] = np.frombuffer(data, np.uint8) >= ord("0")
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    n_tokens = len(bounds) // 2
    if n_tokens and (bounds[1::2] - bounds[0::2]).max() > _MAX_DIGITS:
        return None
    n_breaks = data.count(b"\n")
    if n_tokens:
        # one C pass; -1 (not a possible id) marks each line break
        values = np.fromstring(data.replace(b"\n", b" -1 "), dtype=np.int64, sep=" ")
        if len(values) != n_tokens + n_breaks:  # pragma: no cover
            return None  # fromstring stops quietly at text it cannot parse
    else:
        values = np.zeros(0, np.int64)
    breaks = values < 0
    line = np.cumsum(breaks)[~breaks]
    items = values[~breaks]
    new_row = np.ones(len(items), bool)
    new_row[1:] = line[1:] != line[:-1]
    if (~new_row[1:] & (items[1:] <= items[:-1])).any():
        # unsorted or repeated ids inside a line: sort each line, dedupe
        items = items[np.lexsort((items, line))]
        keep = new_row.copy()
        keep[1:] |= items[1:] != items[:-1]
        items, new_row = items[keep], new_row[keep]
    offsets = np.append(np.flatnonzero(new_row), len(items))
    report.n_lines = n_breaks + (not data.endswith(b"\n") and bool(data))
    report.n_transactions = len(offsets) - 1
    return TransactionDatabase.from_columns(items, offsets)


def write_dat(db: Iterable[Iterable[Hashable]], path: str | Path) -> None:
    """Write transactions in FIMI format, items sorted for determinism."""
    from repro.core.rank import sort_key

    with _open_text(path, "w") as fh:
        for t in db:
            items = sorted(set(t), key=sort_key)
            fh.write(" ".join(str(i) for i in items))
            fh.write("\n")


def read_basket_csv(
    path: str | Path, *, header: bool = True, strict: bool = False
) -> TransactionDatabase:
    """Load ``tid,item`` long-format CSV into a database.

    Transactions appear in first-seen TID order.  TIDs may be arbitrary
    strings; items parse to int when possible.  Malformed rows (no comma)
    and undecodable lines are skipped by default; ``strict=True`` raises
    :class:`DatasetError` on the first one.
    """
    return read_basket_csv_report(path, header=header, strict=strict)[0]


def read_basket_csv_report(
    path: str | Path, *, header: bool = True, strict: bool = False
) -> tuple[TransactionDatabase, ParseReport]:
    """Like :func:`read_basket_csv`, returning the :class:`ParseReport` too."""
    report = ParseReport(path=str(path))
    baskets: dict[str, set] = {}
    order: list[str] = []
    try:
        fh = _open_text(path, "r")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        lines = iter(fh)
        while True:
            try:
                line = next(lines)
            except StopIteration:
                break
            except (EOFError, OSError) as exc:
                if strict:
                    raise DatasetError(
                        f"{path}: stream truncated or corrupt: {exc}"
                    ) from exc
                report.truncated = True
                report.record(f"stream truncated or corrupt: {exc}")
                break
            report.n_lines += 1
            lineno = report.n_lines
            line = line.strip()
            if not line:
                continue
            if header and lineno == 1:
                continue
            if _is_garbage(line):
                if strict:
                    raise DatasetError(
                        f"{path}:{lineno}: line contains undecodable bytes"
                    )
                report.record(f"line {lineno}: undecodable bytes")
                continue
            parts = line.split(",")
            if len(parts) < 2:
                if strict:
                    raise DatasetError(
                        f"{path}:{lineno}: expected 'tid,item', got {line!r}"
                    )
                report.record(f"line {lineno}: expected 'tid,item', got {line!r}")
                continue
            tid, item = parts[0].strip(), ",".join(parts[1:]).strip()
            if tid not in baskets:
                baskets[tid] = set()
                order.append(tid)
            baskets[tid].add(_parse_token(item))
            report.n_transactions = len(order)
    return TransactionDatabase(baskets[tid] for tid in order), report


def write_basket_csv(db: Iterable[Iterable[Hashable]], path: str | Path) -> None:
    """Write transactions as ``tid,item`` rows with a header."""
    from repro.core.rank import sort_key

    with _open_text(path, "w") as fh:
        fh.write("tid,item\n")
        for tid, t in enumerate(db, start=1):
            for item in sorted(set(t), key=sort_key):
                fh.write(f"{tid},{item}\n")
