"""The SWF line parser, pinned line by line through both readers.

``read_swf`` and ``iter_swf`` share one line parser.  This matrix pins,
for every kind of odd line a real archive trace holds, what each reader
makes of it: the yielded ``(id, p, q, release)`` (values *and* types),
the skip reason text, the report line numbers and the skip/clip
counters.  A property test then checks generated lines against a plain
tokenised reference parse, through both readers and through the
parser's fast path and its general parse.
"""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstanceError, TraceFormatError
from repro.workloads import iter_swf, read_swf
from repro.workloads.swf import (
    _IdIntervals,
    _parse_swf_data_line,
    _parse_swf_number,
    _parse_swf_tokens,
)

#: line 1 is the header, line 2 job 1; a case's own lines start at 3
HEAD = "; MaxProcs: 8\n1 0 0 10 1 -1 -1 1 12\n"
TAIL = "9 20 0 10 1 -1 -1 1 12\n"
FIRST = (1, 10, 1, 0)
LAST = (9, 10, 1, 20)


def _rows(jobs):
    return [(j.id, j.p, j.q, j.release) for j in jobs]


def _same(got, expected):
    # repr tells 3 from 3.0 and 1 from "1": rows must match in type too
    assert got == expected and repr(got) == repr(expected)


def _trace(lines):
    return HEAD + "".join(line + "\n" for line in lines) + TAIL


def _read(text):
    report = read_swf(text)
    return report, _rows(report.instance.jobs)


def _stream(text):
    stream = iter_swf(io.StringIO(text))
    return stream, _rows(stream)


# (case, lines, middle rows both readers yield, skip reports both make)
MATRIX = [
    ("fewer-than-5-fields", ["2 5 0 60"], [], [(3, "fewer than 5 fields")]),
    ("abc-runtime", ["2 5 0 abc 4"], [],
     [(3, "malformed SWF number 'abc'")]),
    ("abc-job-number", ["abc 5 0 60 4"], [],
     [(3, "malformed SWF number 'abc'")]),
    ("nan-runtime", ["2 5 0 nan 4"], [],
     [(3, "non-finite SWF number 'nan'")]),
    ("nan-submit", ["2 nan 0 60 4"], [],
     [(3, "non-finite SWF number 'nan'")]),
    ("inf-procs", ["2 5 0 60 inf"], [],
     [(3, "non-finite SWF number 'inf'")]),
    ("decimal-integral-runtime", ["2 5 0 3.0 4"], [(2, 3, 4, 5)], []),
    ("decimal-integral-job-number", ["3.0 5 0 60 4"], [(3, 60, 4, 5)], []),
    ("decimal-procs-truncates", ["2 5 0 60 2.5"], [(2, 60, 2, 5)], []),
    ("decimal-runtime", ["2 5 0 2.5 2"], [(2, 2.5, 2, 5)], []),
    ("decimal-submit", ["2 2.5 0 60 2"], [(2, 60, 2, 2.5)], []),
    ("exponent-runtime", ["2 5 0 1e3 4"], [(2, 1000, 4, 5)], []),
    ("underscore-job-number", ["1_000 5 0 60 4"], [(1000, 60, 4, 5)], []),
    ("plus-sign-procs", ["2 5 0 60 +5"], [(2, 60, 5, 5)], []),
    ("runtime-minus-1-requested", ["2 5 0 -1 4 -1 -1 4 90"],
     [(2, 90, 4, 5)], []),
    ("runtime-0-requested", ["2 5 0 0 4 -1 -1 4 90"], [(2, 90, 4, 5)], []),
    ("runtime-minus-1-no-field-9", ["2 5 0 -1 4 -1 -1 4"], [],
     [(3, "unusable runtime -1")]),
    ("runtime-0-no-field-9", ["2 5 0 0 4 -1 -1 4"], [],
     [(3, "unusable runtime 0")]),
    ("runtime-minus-1-requested-missing", ["2 5 0 -1 4 -1 -1 4 -1"], [],
     [(3, "unusable runtime -1")]),
    ("procs-minus-1-requested", ["2 5 0 60 -1 -1 -1 6"], [(2, 60, 6, 5)], []),
    ("procs-minus-1-no-field-8", ["2 5 0 60 -1 -1 -1"], [],
     [(3, "unusable processor count -1")]),
    ("procs-minus-1-requested-missing", ["2 5 0 60 -1 -1 -1 -1"], [],
     [(3, "unusable processor count -1")]),
    ("procs-0", ["2 5 0 60 0"], [], [(3, "unusable processor count 0")]),
    ("procs-below-1", ["2 5 0 60 0.5"], [],
     [(3, "unusable processor count 0.5")]),
    ("negative-submit-clamped", ["2 -7 0 60 4"], [(2, 60, 4, 0)], []),
    ("tabs-and-leading-whitespace", ["\t  2\t5 0\t60  4\t-1"],
     [(2, 60, 4, 5)], []),
    ("job-number-above-2-53", [f"{2**53 + 1} 5 0 60 4", f"{2**53 + 2} 6 0 60 4"],
     [(2**53 + 1, 60, 4, 5), (2**53 + 2, 60, 4, 6)], []),
    ("repeated-job-number", ["1 5 0 60 4", "1 6 0 60 4"],
     [("1+", 60, 4, 5), ("1++", 60, 4, 6)], []),
]


@pytest.mark.parametrize(
    "lines, middle, skipped",
    [case[1:] for case in MATRIX],
    ids=[case[0] for case in MATRIX],
)
def test_line_matrix(lines, middle, skipped):
    text = _trace(lines)
    expected = [FIRST, *middle, LAST]
    report, rows = _read(text)
    _same(rows, expected)
    _same(report.skipped, skipped)
    assert report.instance.m == 8
    stream, rows = _stream(text)
    _same(rows, expected)
    _same(stream.skipped, skipped)
    assert (stream.n_skipped, stream.n_clipped, stream.clipped) == (
        len(skipped), 0, []
    )


def test_backwards_submit():
    """Kept (and sorted by nothing) by ``read_swf``; skipped and
    reported by the stream, which cannot re-sort the past."""
    text = _trace(["2 5 0 60 4", "3 3 0 60 4"])
    report, rows = _read(text)
    _same(rows, [FIRST, (2, 60, 4, 5), (3, 60, 4, 3), LAST])
    assert report.skipped == []
    stream, rows = _stream(text)
    _same(rows, [FIRST, (2, 60, 4, 5), LAST])
    _same(stream.skipped, [(4, "submit time 3 goes backwards (previous was 5)")])
    assert (stream.n_skipped, stream.n_clipped) == (1, 0)


def test_width_past_machine_is_clipped():
    """Clipped jobs are replayed, so the stream reports them apart from
    the skipped ones; both readers key the entry by line number, with
    the same text."""
    text = _trace(["2 5 0 60 9"])
    clipped = [(3, "job 2: width 9 exceeds machine 8; clipped")]
    report, rows = _read(text)
    _same(rows, [FIRST, (2, 60, 8, 5), LAST])
    _same(report.skipped, clipped)
    stream, rows = _stream(text)
    _same(rows, [FIRST, (2, 60, 8, 5), LAST])
    assert (stream.skipped, stream.n_skipped) == ([], 0)
    _same(stream.clipped, clipped)
    assert stream.n_clipped == 1


def test_indented_header_lines():
    """A ``;`` line is a header however it is indented; it is stored
    stripped.  Both readers take the first ``MaxProcs`` header (the
    stream must know the machine before any job), so a later one
    changes nothing."""
    text = _trace(["   ; MaxProcs: 16", "\t; a note", "2 5 0 60 12"])
    headers = ["; MaxProcs: 8", "; MaxProcs: 16", "; a note"]
    clipped = [(5, "job 2: width 12 exceeds machine 8; clipped")]
    report, rows = _read(text)
    assert report.header == headers and report.instance.m == 8
    _same(rows, [FIRST, (2, 60, 8, 5), LAST])
    _same(report.skipped, clipped)
    stream, rows = _stream(text)
    assert stream.header == headers and stream.m == 8
    _same(rows, [FIRST, (2, 60, 8, 5), LAST])
    _same(stream.clipped, clipped)
    assert (stream.n_skipped, stream.n_clipped) == (0, 1)
    alone = "  ; MaxProcs: 4\n1 0 0 10 2\n"
    stream, rows = _stream(alone)
    assert stream.m == 4 and rows == [(1, 10, 2, 0)]
    assert read_swf(alone).instance.m == 4


@pytest.mark.parametrize("m", [0, -4, 2.5])
def test_invalid_machine_size_is_refused(m):
    """The readers build jobs unchecked, so a machine size that is not
    a positive integer is refused rather than clipped to."""
    with pytest.raises(InvalidInstanceError, match="machine count"):
        read_swf(_trace(["2 5 0 60 9"]), m=m)
    with pytest.raises(InvalidInstanceError, match="machine count"):
        list(iter_swf(io.StringIO(_trace([])), m=m))


def test_id_intervals_match_a_set():
    rng = random.Random(7)
    for _ in range(40):
        ids, seen = _IdIntervals(), set()
        for _ in range(300):
            if ids.next is not None and rng.random() < 0.5:
                value = ids.next
                ids.next = value + 1  # the O(1) extension the stream uses
                new = True
            else:
                value = rng.randrange(0, 200)
                new = ids.add(value)
            assert new == (value not in seen)
            seen.add(value)
        for value in range(-1, max(seen) + 2):
            assert ids.add(value) == (value not in seen)
            seen.add(value)
        assert len(ids) == 1
    sequential = _IdIntervals()
    sequential.add(5)
    for value in range(6, 10_000):
        sequential.next = value + 1
    assert len(sequential) == 1
    assert not sequential.add(9_999) and sequential.add(10_000)
    assert sequential.next == 10_001


# ---------------------------------------------------------------------------
# generated lines against a tokenised reference parse
# ---------------------------------------------------------------------------

def _reference_parse(text):
    """The general parse, written out on the full token list: ``(row,
    None)`` or ``(None, reason)``."""
    tokens = text.split()
    if len(tokens) < 5:
        return None, "fewer than 5 fields"
    try:
        job_no = int(_parse_swf_number(tokens[0]))
        submit = _parse_swf_number(tokens[1])
        runtime = _parse_swf_number(tokens[3])
        procs = _parse_swf_number(tokens[4])
        if runtime in (-1, 0) and len(tokens) > 8:
            runtime = _parse_swf_number(tokens[8])
        if procs == -1 and len(tokens) > 7:
            procs = _parse_swf_number(tokens[7])
    except TraceFormatError as exc:
        return None, str(exc)
    if runtime <= 0:
        return None, f"unusable runtime {runtime!r}"
    if procs < 1:
        return None, f"unusable processor count {procs!r}"
    return (job_no, max(submit, 0), runtime, int(procs)), None


TOKENS = [
    "-1", "0", "1", "2", "7", "64", "-7", "3.0", "2.5", "1e3", "1.5e2",
    "1_000", "+5", "abc", "nan", "inf", "-inf", "1e400", "12x", "0.5",
    str(2**53 + 1),
]
token = st.one_of(
    st.sampled_from(TOKENS), st.integers(-3, 2**64).map(str)
)
separator = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def data_lines(draw):
    fields = draw(st.lists(token, min_size=1, max_size=18))
    line = fields[0]
    for field in fields[1:]:
        line += draw(separator) + field
    return draw(st.sampled_from(["", " ", "\t"])) + line


# derandomized: the same lines every run, so tier-1 stays reproducible
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data_lines())
def test_generated_lines_match_reference_parse(line):
    row, reason = _reference_parse(line)
    # the fast path answers exactly as the general parse would
    _same(_parse_swf_data_line(line), (row, reason))
    _same(_parse_swf_tokens(line.split()), (row, reason))
    text = _trace([line])
    report, read_rows = _read(text)
    stream, stream_rows = _stream(text)
    if row is None:
        _same(read_rows, [FIRST, LAST])
        _same(stream_rows, [FIRST, LAST])
        _same(report.skipped, [(3, reason)])
        _same(stream.skipped, [(3, reason)])
        assert stream.clipped == []
        return
    job_no, submit, runtime, procs = row
    jid = "1+" if job_no == 1 else job_no
    if job_no == 9:
        last = ("9+", *LAST[1:])
    else:
        last = LAST
    q = min(procs, 8)
    _same(read_rows, [FIRST, (jid, runtime, q, submit), last])
    backwards = submit > 20  # the tail line's submit
    if backwards:
        _same(stream_rows, [FIRST, (jid, runtime, q, submit)])
        _same(stream.skipped,
              [(4, f"submit time 20 goes backwards (previous was {submit})")])
    else:
        _same(stream_rows, [FIRST, (jid, runtime, q, submit), last])
        assert stream.skipped == []
    if procs > 8:
        clipped = [(3, f"job {job_no}: width {procs} exceeds machine 8; clipped")]
        _same(report.skipped, clipped)
        _same(stream.clipped, clipped)
    else:
        assert report.skipped == [] and stream.clipped == []
