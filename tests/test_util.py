"""Timestamp handling, atomic writes, and hashing."""

from __future__ import annotations

import hashlib
import os
import stat
from datetime import datetime, timedelta, timezone

import pytest

from snoscope.util import atomic_write, format_rfc3339, parse_rfc3339, sha256_file


class TestParseRfc3339:
    def test_z_suffix_is_utc(self):
        stamp = parse_rfc3339("2021-03-01T12:30:45Z")
        assert stamp == datetime(2021, 3, 1, 12, 30, 45, tzinfo=timezone.utc)
        assert stamp.tzinfo == timezone.utc

    def test_numeric_offset_is_normalized_to_utc(self):
        stamp = parse_rfc3339("2021-03-01T12:30:45+02:00")
        assert stamp == datetime(2021, 3, 1, 10, 30, 45, tzinfo=timezone.utc)
        assert stamp.utcoffset() == timedelta(0)

    def test_fractional_seconds_survive(self):
        stamp = parse_rfc3339("2021-03-01T12:30:45.125Z")
        assert stamp.microsecond == 125000

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError):
            parse_rfc3339("2021-03-01T12:30:45")

    @pytest.mark.parametrize("text", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_out_of_range_in_utc_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="out of range"):
            parse_rfc3339(text)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_rfc3339("yesterday")


UTC = timezone.utc


class TestRfc3339Grammar:
    """RFC 3339 date-time only, whichever forms the interpreter's fromisoformat reads."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2021-03-01T00:00:00Z", datetime(2021, 3, 1, tzinfo=UTC)),
            ("2021-03-01t00:00:00z", datetime(2021, 3, 1, tzinfo=UTC)),
            ("2021-03-01T00:00:00.5Z", datetime(2021, 3, 1, 0, 0, 0, 500000, tzinfo=UTC)),
            ("2021-03-01T00:00:00.12Z", datetime(2021, 3, 1, 0, 0, 0, 120000, tzinfo=UTC)),
            ("2021-03-01T00:00:00.1234Z", datetime(2021, 3, 1, 0, 0, 0, 123400, tzinfo=UTC)),
            ("2021-03-01T00:00:00.000001Z", datetime(2021, 3, 1, 0, 0, 0, 1, tzinfo=UTC)),
            ("2021-03-01T05:30:00+05:30", datetime(2021, 3, 1, tzinfo=UTC)),
            ("2021-02-28T23:59:00-00:01", datetime(2021, 3, 1, tzinfo=UTC)),
            ("2021-03-01T23:59:59-23:59", datetime(2021, 3, 2, 23, 58, 59, tzinfo=UTC)),
            ("2020-02-29T00:00:00Z", datetime(2020, 2, 29, tzinfo=UTC)),
        ],
    )
    def test_accepted(self, text, expected):
        stamp = parse_rfc3339(text)
        assert stamp == expected and stamp.utcoffset() == timedelta(0)

    @pytest.mark.parametrize(
        "text",
        [
            "20210301T000000Z",  # basic format
            "2021-W09-1T00:00:00Z",  # ISO week date
            "2021-060T00:00:00Z",  # ordinal date
            "2021-03-01T00Z",  # hour only
            "2021-03-01T00:00Z",  # no seconds
            "2021-03-01T00:00:00,5Z",  # comma decimal
            "2021-03-01T00:00:00.Z",  # empty fraction
            "2021-03-01T00:00:00.1234567Z",  # beyond microseconds
            "2021-03-01T00:00:00+0000",  # offset without a colon
            "2021-03-01T00:00:00+00",  # hour-only offset
            "2021-03-01T00:00:00+24:00",
            "2021-03-01T00:00:00+00:60",
            "2021-03-01T00:00:00",  # no offset
            "2021-03-01 00:00:00Z",  # space separator
            "2021-03-01_00:00:00Z",
            " 2021-03-01T00:00:00Z",
            "2021-03-01T00:00:00Z\n",
            "2021-3-01T00:00:00Z",
            "2021-02-29T00:00:00Z",
            "2021-03-01T24:00:00Z",
            "2021-03-01T00:00:60Z",  # leap second
            "0000-01-01T00:00:00Z",
            "\uff12\uff10\uff12\uff11-03-01T00:00:00Z",  # fullwidth digits
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError, match="bad RFC 3339 timestamp"):
            parse_rfc3339(text)


class TestFormatRfc3339:
    def test_round_trip(self):
        for text in ("2021-03-01T12:30:45Z", "2021-12-31T23:59:59.000001Z"):
            assert format_rfc3339(parse_rfc3339(text)) == text

    def test_non_utc_input_rendered_as_utc(self):
        stamp = datetime(2021, 3, 1, 12, 0, 0, tzinfo=timezone(timedelta(hours=5)))
        assert format_rfc3339(stamp) == "2021-03-01T07:00:00Z"

    def test_whole_seconds_have_no_fraction(self):
        assert format_rfc3339(datetime(2021, 3, 1, tzinfo=timezone.utc)) == "2021-03-01T00:00:00Z"


class TestAtomicWrite:
    def test_writes_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as handle:
            handle.write("hello\n")
        assert target.read_text() == "hello\n"

    def test_failure_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no stray temp files either

    def test_failure_preserves_previous_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("new")
                raise RuntimeError("boom")
        assert target.read_text() == "old\n"

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with atomic_write(target) as handle:
            handle.write("new\n")
        assert target.read_text() == "new\n"

    @pytest.mark.parametrize("umask", [0o022, 0o027])
    @pytest.mark.parametrize("binary", [False, True])
    def test_mode_follows_umask(self, tmp_path, umask, binary):
        target = tmp_path / "out"
        previous = os.umask(umask)
        try:
            with atomic_write(target, binary=binary) as handle:
                handle.write(b"x" if binary else "x")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    def test_binary_handle_writes_bytes(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_write(target, binary=True) as handle:
            handle.write(b"\x00\r\n\xff")
        assert target.read_bytes() == b"\x00\r\n\xff"


class TestSha256File:
    def test_matches_hashlib(self, tmp_path):
        target = tmp_path / "blob.bin"
        payload = b"snoscope\n" * 1000
        target.write_bytes(payload)
        assert sha256_file(target) == hashlib.sha256(payload).hexdigest()
