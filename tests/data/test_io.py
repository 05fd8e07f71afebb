"""Unit tests for dataset I/O (FIMI .dat and basket CSV)."""

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plt import PLT
from repro.data.io import (
    MAX_REPORT_ERRORS,
    ParseReport,
    iter_dat_lines,
    read_basket_csv,
    read_basket_csv_report,
    read_dat,
    read_dat_report,
    write_basket_csv,
    write_dat,
)
from repro.data.transaction_db import TransactionDatabase
from repro.errors import DatasetError


class TestDat:
    def test_roundtrip(self, tmp_path):
        db = TransactionDatabase([(1, 2, 3), (2, 5), (7,)])
        path = tmp_path / "t.dat"
        write_dat(db, path)
        assert read_dat(path) == db

    def test_gzip_roundtrip(self, tmp_path):
        db = TransactionDatabase([(1, 2), (3,)])
        path = tmp_path / "t.dat.gz"
        write_dat(db, path)
        with gzip.open(path) as fh:
            assert fh.read()  # actually gzip-compressed
        assert read_dat(path) == db

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_text("1 2\n\n  \n3\n")
        db = read_dat(path)
        assert len(db) == 2

    def test_string_items_preserved(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_text("apple 12 pear\n")
        (t,) = list(read_dat(path))
        assert t == frozenset({"apple", 12, "pear"})

    def test_items_written_sorted(self, tmp_path):
        path = tmp_path / "t.dat"
        write_dat([(3, 1, 2)], path)
        assert path.read_text() == "1 2 3\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            read_dat(tmp_path / "absent.dat")

    def test_iter_streams(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_text("1\n2 3\n")
        rows = list(iter_dat_lines(path))
        assert rows == [(1,), (2, 3)]


class TestBasketCsv:
    def test_roundtrip(self, tmp_path):
        db = TransactionDatabase([("milk", "bread"), ("beer",)])
        path = tmp_path / "b.csv"
        write_basket_csv(db, path)
        assert read_basket_csv(path) == db

    def test_header_written(self, tmp_path):
        path = tmp_path / "b.csv"
        write_basket_csv([("a",)], path)
        assert path.read_text().splitlines()[0] == "tid,item"

    def test_read_without_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("t1,a\nt1,b\nt2,a\n")
        db = read_basket_csv(path, header=False)
        assert len(db) == 2
        assert db[0] == frozenset("ab")

    def test_malformed_row_strict(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("tid,item\njustonefield\n")
        with pytest.raises(DatasetError, match="expected"):
            read_basket_csv(path, strict=True)

    def test_malformed_row_skipped_by_default(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("tid,item\njustonefield\n1,a\n")
        db, report = read_basket_csv_report(path)
        assert db[0] == frozenset({"a"})
        assert report.n_skipped == 1 and not report.ok()
        assert "justonefield" in report.errors[0]

    def test_item_with_comma_preserved(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("tid,item\n1,a,b\n")
        db = read_basket_csv(path)
        assert db[0] == frozenset({"a,b"})

    def test_int_items_parsed(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("tid,item\n1,42\n")
        assert read_basket_csv(path)[0] == frozenset({42})

    def test_gzip(self, tmp_path):
        db = TransactionDatabase([("x",)])
        path = tmp_path / "b.csv.gz"
        write_basket_csv(db, path)
        assert read_basket_csv(path) == db


class TestRobustParsing:
    """Dirty real-world inputs: binary junk, truncated streams, reports."""

    def test_binary_junk_lines_skipped(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_bytes(b"1 2 3\n\xff\xfe\x9d junk\n4 5\n")
        db, report = read_dat_report(path)
        assert list(db) == [frozenset({1, 2, 3}), frozenset({4, 5})]
        assert report.n_skipped == 1 and report.n_transactions == 2
        assert not report.truncated
        assert "undecodable" in report.errors[0]

    def test_binary_junk_strict_raises(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_bytes(b"1 2\n\x00\x00\n")
        with pytest.raises(DatasetError, match="undecodable"):
            read_dat(path, strict=True)

    def test_nul_byte_is_garbage_even_when_decodable(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_bytes(b"1\x002\n3\n")
        db, report = read_dat_report(path)
        assert list(db) == [frozenset({3})]
        assert report.n_skipped == 1

    def test_truncated_gzip_yields_prefix(self, tmp_path):
        whole = tmp_path / "w.dat.gz"
        write_dat([(i, i + 1) for i in range(500)], whole)
        cut = tmp_path / "cut.dat.gz"
        data = whole.read_bytes()
        cut.write_bytes(data[: len(data) // 2])
        db, report = read_dat_report(cut)
        assert report.truncated and not report.ok()
        assert 0 < len(db) < 500
        # every transaction that did parse is genuine
        assert all(t == frozenset({min(t), min(t) + 1}) for t in db)

    def test_truncated_gzip_strict_raises(self, tmp_path):
        whole = tmp_path / "w.dat.gz"
        write_dat([(i,) for i in range(500)], whole)
        data = whole.read_bytes()
        cut = tmp_path / "cut.dat.gz"
        cut.write_bytes(data[: len(data) // 2])
        with pytest.raises(DatasetError, match="truncated or corrupt"):
            read_dat(cut, strict=True)

    def test_truncated_csv_gzip_tolerated(self, tmp_path):
        whole = tmp_path / "b.csv.gz"
        write_basket_csv([(i,) for i in range(500)], whole)
        data = whole.read_bytes()
        cut = tmp_path / "cut.csv.gz"
        cut.write_bytes(data[: len(data) // 2])
        db, report = read_basket_csv_report(cut)
        assert report.truncated
        assert 0 < len(db) < 500

    def test_report_error_list_capped(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_bytes(b"\x00 bad\n" * (MAX_REPORT_ERRORS + 30) + b"1 2\n")
        db, report = read_dat_report(path)
        assert report.n_skipped == MAX_REPORT_ERRORS + 30  # counts stay exact
        assert len(report.errors) == MAX_REPORT_ERRORS
        assert len(db) == 1

    def test_clean_file_reports_ok(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_text("1 2\n3\n")
        _, report = read_dat_report(path)
        assert report.ok()
        assert report.n_lines == 2 and report.n_transactions == 2
        assert "clean" in repr(report)

    def test_missing_file_always_raises(self, tmp_path):
        # tolerance covers damaged content, not an unreadable path
        with pytest.raises(DatasetError, match="cannot read"):
            read_dat(tmp_path / "absent.dat")
        with pytest.raises(DatasetError, match="cannot read"):
            read_basket_csv(tmp_path / "absent.csv")

    def test_parse_report_record(self):
        report = ParseReport(path="x")
        for i in range(MAX_REPORT_ERRORS + 5):
            report.record(f"err {i}")
        assert report.n_skipped == MAX_REPORT_ERRORS + 5
        assert len(report.errors) == MAX_REPORT_ERRORS


class TestIterDatStream:
    """iter_dat_stream: forward-only parsing of unseekable feeds."""

    @staticmethod
    def _pipe(payload: bytes):
        """A genuinely unseekable binary stream (os.pipe read end)."""
        import os

        r, w = os.pipe()
        os.write(w, payload)
        os.close(w)
        return os.fdopen(r, "rb")

    def test_text_stream(self):
        import io as _io

        from repro.data.io import iter_dat_stream

        txs = list(iter_dat_stream(_io.StringIO("1 2 3\n4 5\n")))
        assert txs == [(1, 2, 3), (4, 5)]

    def test_binary_pipe(self):
        from repro.data.io import iter_dat_stream

        with self._pipe(b"1 2\n3\n") as fh:
            assert list(iter_dat_stream(fh)) == [(1, 2), (3,)]

    def test_gzip_auto_detected_on_pipe(self):
        from repro.data.io import iter_dat_stream

        payload = gzip.compress(b"7 8\n9\n")
        with self._pipe(payload) as fh:
            assert list(iter_dat_stream(fh)) == [(7, 8), (9,)]

    def test_plain_text_auto_not_misdetected(self):
        from repro.data.io import iter_dat_stream

        # first two bytes are not the gzip magic: passes through untouched
        with self._pipe(b"10 11\n") as fh:
            assert list(iter_dat_stream(fh)) == [(10, 11)]

    def test_compression_none_skips_peek(self):
        from repro.data.io import iter_dat_stream

        with self._pipe(b"1 2\n") as fh:
            assert list(iter_dat_stream(fh, compression="none")) == [(1, 2)]

    def test_compression_gzip_forced(self):
        from repro.data.io import iter_dat_stream

        with self._pipe(gzip.compress(b"5\n")) as fh:
            assert list(iter_dat_stream(fh, compression="gzip")) == [(5,)]

    def test_bad_compression_rejected(self):
        import io as _io

        from repro.data.io import iter_dat_stream

        with pytest.raises(DatasetError):
            list(iter_dat_stream(_io.BytesIO(b""), compression="zstd"))

    def test_junk_lines_counted_not_fatal(self):
        from repro.data.io import ParseReport, iter_dat_stream

        report = ParseReport(path="<test>")
        with self._pipe(b"1 2\nnot numbers ok\n\xff\xfe\n3\n") as fh:
            txs = list(iter_dat_stream(fh, report=report))
        assert txs == [(1, 2), ("not", "numbers", "ok"), (3,)]
        assert report.n_lines == 4
        assert report.n_transactions == 3
        assert report.n_skipped == 1  # the undecodable binary line

    def test_strict_raises_on_junk(self):
        from repro.data.io import iter_dat_stream

        with self._pipe(b"1\n\x00bad\n") as fh:
            with pytest.raises(DatasetError):
                list(iter_dat_stream(fh, strict=True))

    def test_truncated_gzip_sets_report_flag(self):
        from repro.data.io import ParseReport, iter_dat_stream

        whole = gzip.compress(b"1 2\n" * 500)
        report = ParseReport(path="<trunc>")
        with self._pipe(whole[: len(whole) // 2]) as fh:
            txs = list(iter_dat_stream(fh, report=report))
        assert report.truncated
        # tolerant contract: everything decodable before the cut is kept
        assert all(t == (1, 2) for t in txs)

    def test_report_parity_with_file_reader(self, tmp_path):
        from repro.data.io import ParseReport, iter_dat_lines, iter_dat_stream

        payload = b"1 2 3\n\n junk\xc3(\n4\n"
        path = tmp_path / "parity.dat"
        path.write_bytes(payload)
        file_report = ParseReport(path=str(path))
        file_txs = list(iter_dat_lines(path, report=file_report))
        stream_report = ParseReport(path="<stream>")
        with self._pipe(payload) as fh:
            stream_txs = list(iter_dat_stream(fh, report=stream_report))
        assert stream_txs == file_txs
        assert stream_report.n_lines == file_report.n_lines
        assert stream_report.n_transactions == file_report.n_transactions
        assert stream_report.n_skipped == file_report.n_skipped

    def test_constant_memory_large_feed(self):
        """A feed far larger than any buffer must not be slurped."""
        import os

        from repro.data.io import iter_dat_stream

        r, w = os.pipe()
        n_lines = 20000
        writer_pid = os.fork()
        if writer_pid == 0:  # child: drip the payload, then exit
            os.close(r)
            try:
                for i in range(n_lines):
                    os.write(w, f"{i % 50} {i % 7}\n".encode())
            finally:
                os.close(w)
                os._exit(0)
        os.close(w)
        with os.fdopen(r, "rb") as fh:
            count = sum(1 for _ in iter_dat_stream(fh))
        os.waitpid(writer_pid, 0)
        assert count == n_lines


class TestParseFastPath:
    """All-integer lines take one ``map(int, ...)`` pass; any other line
    falls back to ``_parse_token`` per token — with the same result."""

    LINES = [
        "1 2 3",
        "-3 +4 007",
        "1_000 42",
        "1.5 2",
        "a 7 b",
        "café 3 é",
        "３ ٣ 12",  # non-ASCII digits parse as ints
        "² 5",  # superscript two is not a decimal digit
        "-3 +4 007 1_000 1.5 a é",
        "9" * 40 + " 0",
        "_1 1_ 1__0",  # misplaced underscores stay strings
    ]

    @staticmethod
    def _expected(line):
        from repro.data.io import _parse_token

        return tuple(_parse_token(tok) for tok in line.split())

    @pytest.mark.parametrize("line", LINES)
    def test_line_matches_token_parse(self, line, tmp_path):
        path = tmp_path / "one.dat"
        path.write_text(line + "\n", encoding="utf-8")
        (got,) = list(iter_dat_lines(path))
        assert got == self._expected(line)
        assert [type(x) for x in got] == [type(x) for x in self._expected(line)]

    def test_mixed_file(self, tmp_path):
        path = tmp_path / "mixed.dat"
        path.write_text("\n".join(self.LINES) + "\n", encoding="utf-8")
        assert list(iter_dat_lines(path)) == [self._expected(x) for x in self.LINES]

    def _dirty(self, tmp_path):
        payload = b"1 2\n-3 a\n7 \xff 8\n\n4 +5\nx\x00y 1\n007 1.5\n"
        path = tmp_path / "dirty.dat"
        path.write_bytes(payload)
        return payload, path

    def test_garbage_lines_tolerant(self, tmp_path):
        _, path = self._dirty(tmp_path)
        db, report = read_dat_report(path)
        assert list(db) == [
            frozenset(t) for t in [(1, 2), (-3, "a"), (4, 5), (7, "1.5")]
        ]
        assert (report.n_lines, report.n_transactions, report.n_skipped) == (7, 4, 2)
        assert report.errors == ["line 3: undecodable bytes", "line 6: undecodable bytes"]

    def test_garbage_lines_strict(self, tmp_path):
        _, path = self._dirty(tmp_path)
        with pytest.raises(DatasetError, match=r"dirty.dat:3: line contains undecodable"):
            read_dat(path, strict=True)

    def test_stream_parity(self, tmp_path):
        from repro.data.io import iter_dat_stream

        payload, path = self._dirty(tmp_path)
        file_report = ParseReport(path=str(path))
        file_txs = list(iter_dat_lines(path, report=file_report))
        stream_report = ParseReport(path="<stream>")
        with TestIterDatStream._pipe(payload) as fh:
            stream_txs = list(iter_dat_stream(fh, report=stream_report))
        assert stream_txs == file_txs == [(1, 2), (-3, "a"), (4, 5), (7, "1.5")]
        assert stream_report.errors == file_report.errors
        with TestIterDatStream._pipe(payload) as fh:
            with pytest.raises(DatasetError, match="<stream>:3"):
                list(iter_dat_stream(fh, strict=True))


# ---------------------------------------------------------------------------
# bulk integer reader vs the line tokeniser
# ---------------------------------------------------------------------------
_ids = st.one_of(
    st.integers(0, 9),  # frequent, and repeated inside a line
    st.integers(10, 10**18 - 1),  # rare, up to 18 digits
)
_token = st.tuples(_ids, st.integers(0, 3)).map(
    lambda pair: ("0" * pair[1] + str(pair[0]))[-18:] if pair[0] else "0" * (pair[1] + 1)
)
_space = st.sampled_from([" ", "\t", "  ", " \t "])
_line = st.one_of(
    st.sampled_from(["", " ", "\t", " \t  "]),  # blank and whitespace-only
    st.tuples(
        st.sampled_from(["", " ", "\t"]),
        st.lists(st.tuples(_token, _space), min_size=1, max_size=8),
        st.sampled_from(["", " ", "\t"]),
    ).map(lambda t: t[0] + "".join(tok + sep for tok, sep in t[1]).rstrip(" \t") + t[2]),
)


def _join_lines(lines, trailing_break):
    text = "".join(line + end for line, end in lines)
    if lines and not trailing_break:
        text = text[: len(text) - len(lines[-1][1])]  # no final break
    return text


_integer_dat = st.builds(
    _join_lines,
    st.lists(st.tuples(_line, st.sampled_from(["\n", "\r\n", "\r"])), max_size=30),
    st.booleans(),
)


def _tokenised(path):
    report = ParseReport(path=str(path))
    return TransactionDatabase(iter_dat_lines(path, report=report)), report


def _assert_bulk_equals_tokeniser(path):
    db, report = read_dat_report(path)
    assert db.columns() is not None  # the bulk path ran
    want, want_report = _tokenised(path)
    assert len(db) == len(want)
    assert db.supports() == want.supports()
    assert list(db) == list(want)
    assert (report.n_lines, report.n_transactions, report.ok()) == (
        want_report.n_lines, want_report.n_transactions, want_report.ok()
    )
    for support in (1, 2, 3):
        plt, oracle = PLT.from_transactions(db, support), PLT.from_transactions(want, support)
        assert plt.rank_table == oracle.rank_table
        assert list(plt.iter_rank_paths()) == list(oracle.iter_rank_paths())
        assert plt.n_transactions == oracle.n_transactions == len(want)
        assert plt == oracle


class TestBulkIntegerReader:
    """An all-integer ``.dat`` file, plain or gzipped, is parsed in bulk
    into columns; the result equals the line tokeniser's in every
    observable way."""

    @settings(max_examples=300, deadline=None)
    @given(text=_integer_dat)
    def test_bulk_path_equals_tokeniser(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("bulk") / "t.dat"
        path.write_bytes(text.encode("ascii"))
        _assert_bulk_equals_tokeniser(path)

    @settings(max_examples=150, deadline=None)
    @given(text=_integer_dat, members=st.integers(1, 3))
    def test_gzipped_bulk_path_equals_tokeniser(self, text, members, tmp_path_factory):
        # the text split over 1-3 concatenated gzip members, which both
        # readers must decode as one stream
        path = tmp_path_factory.mktemp("bulkgz") / "t.dat.gz"
        data = text.encode("ascii")
        cuts = [len(data) * k // members for k in range(members + 1)]
        path.write_bytes(b"".join(
            gzip.compress(data[a:b]) for a, b in zip(cuts, cuts[1:])
        ))
        _assert_bulk_equals_tokeniser(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_bytes(b"")
        db, report = read_dat_report(path)
        assert db.columns() is not None and len(db) == 0 and list(db) == []
        assert (report.n_lines, report.n_transactions) == (0, 0)
        assert PLT.from_transactions(db, 1).n_vectors() == 0

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("long.dat", b"1 2\n" + b"1" * 19 + b" 2\n"),  # does not fit 18 digits
            ("byte.dat", b"1 2\n3 4\x0c\n"),  # one byte outside the alphabet
            ("signed.dat", b"1 2\n+3 4\n"),
            # a .gz case's payload is gzipped; a broken stream still
            # yields what is readable, through the tokeniser
            ("signed.dat.gz", b"1 2\n+3 4\n"),
            ("truncated.dat.gz", None),
            ("corrupt.dat.gz", None),
        ],
    )
    def test_other_files_take_the_tokeniser(self, name, payload, tmp_path):
        path = tmp_path / name
        if name.endswith(".gz"):
            whole = gzip.compress(payload or b"1 2\n3 4\n" * 400)
            if name.startswith("truncated"):
                payload = whole[: len(whole) // 2]  # the stream ends mid-member
            elif name.startswith("corrupt"):
                payload = whole[:-8] + bytes(8)  # a bad CRC and length trailer
            else:
                payload = whole
        path.write_bytes(payload)
        db, report = read_dat_report(path)
        assert db.columns() is None
        want, want_report = _tokenised(path)
        assert list(db) == list(want)
        assert (report.n_lines, report.n_transactions, report.truncated) == (
            want_report.n_lines, want_report.n_transactions, want_report.truncated
        )
        assert report.truncated == name.startswith(("truncated", "corrupt"))

    def test_lazy_item_sets(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_bytes(b"3 1 3\r\n\n2\t7\r5")
        db = read_dat(path)
        assert db._sets is None  # length and supports come off the columns
        assert len(db) == 3 and db.supports() == {1: 1, 2: 1, 3: 1, 5: 1, 7: 1}
        assert db._sets is None
        assert list(db) == [frozenset({1, 3}), frozenset({2, 7}), frozenset({5})]
