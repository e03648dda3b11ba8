"""Shared helpers: RFC 3339 timestamps, atomic file writes, file digests."""

from __future__ import annotations

import hashlib
import os
import re
import secrets
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterator


# RFC 3339 section 5.6 date-time, with a fraction of at most 6 digits.
_RFC3339_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.([0-9]{1,6}))?"
    r"([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])"
)


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime.

    The text must match RFC 3339's date-time as a whole: a T or t
    separator, a fraction of 1 to 6 digits, and a Z, z or +HH:MM/-HH:MM
    offset. fromisoformat only converts a matched text, rewritten into the
    form every Python version reads, so the accepted set does not depend
    on the interpreter.
    """
    match = _RFC3339_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"bad RFC 3339 timestamp: {text!r}")
    fraction, offset = match.groups()
    iso = text[:19] + ("." + fraction.ljust(6, "0") if fraction else "") + ("+00:00" if offset in ("Z", "z") else offset)
    try:
        stamp = datetime.fromisoformat(iso)
    except ValueError:
        raise ValueError(f"bad RFC 3339 timestamp: {text!r}") from None
    try:
        return stamp.astimezone(timezone.utc)
    except OverflowError:
        # e.g. 0001-01-01T00:00:00+01:00 falls before year 1 in UTC.
        raise ValueError(f"timestamp out of range in UTC: {text!r}") from None


def format_rfc3339(stamp: datetime) -> str:
    """Render an aware datetime as RFC 3339 with a Z suffix."""
    stamp = stamp.astimezone(timezone.utc)
    if stamp.microsecond:
        return stamp.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


@contextmanager
def atomic_write(path: str | Path, newline: str | None = "\n", binary: bool = False) -> Iterator[IO]:
    """Write a file via a same-directory temp file and a final rename.

    The destination is either fully written or untouched; readers never see a
    partial file. It gets the mode a plain open() would give a new file:
    0o666 less the process umask.
    Text files are UTF-8; binary=True yields a byte handle instead.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.parent / f".{path.name}.{secrets.token_hex(8)}"
    # Created exclusively with 0o666, so the kernel applies the umask.
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if binary:
            handle = os.fdopen(fd, "wb")
        else:
            handle = os.fdopen(fd, "w", encoding="utf-8", newline=newline)
        with handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
