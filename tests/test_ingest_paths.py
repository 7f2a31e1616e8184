"""The two ingest paths agree: load_dataset's one-call matrix parse against
its per-line parse, and build_beat_matrix's shared-grid, chunked build
against resample_beat and normalize_beat one record at a time."""

import warnings

import numpy as np
import pytest

from segdict import ingest
from segdict.errors import FlatBeatWarning, ParseError
from segdict.ingest import (RawBeatRecord, build_beat_matrix, load_dataset,
                            normalize_beat, resample_beat)

GOOD = "N,0.5,-1,2,3.25,-4,5,6,7"


def outcome(path):
    """The records load_dataset reads from path, or its ParseError."""
    try:
        return load_dataset(path)
    except ParseError as exc:
        return f"ParseError: {exc}"


def both_paths(monkeypatch, path):
    """load_dataset's outcome, and whether the matrix parse produced it;
    then its outcome with the matrix parse switched off."""
    real = ingest._parse_rows
    parsed = []

    def spy(rows, channels):
        parsed.append(real(rows, channels))
        return parsed[-1]

    with monkeypatch.context() as m:
        m.setattr(ingest, "_parse_rows", spy)
        fast = outcome(path)
    with monkeypatch.context() as m:
        m.setattr(ingest, "_parse_rows", lambda rows, channels: None)
        slow = outcome(path)
    return fast, parsed[0] is not None, slow


def assert_same_records(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.label == y.label
        assert x.channel_count == y.channel_count
        assert x.samples.dtype == y.samples.dtype
        assert x.samples.tobytes() == y.samples.tobytes()


def per_record(records, target_len):
    return np.column_stack([normalize_beat(resample_beat(r, target_len))
                            for r in records])


def random_csv(rng, channels, newline, rows=300):
    """Seeded beat CSV text with a header, blank lines, padded fields,
    exponents and + signs."""
    per_channel = int(rng.integers(8, 20))
    width = per_channel * channels
    formats = ("{:.17g}", "{:.6f}", "{:.3e}", "{:+.4g}", "{:E}", "{:+}")
    pads = ("", " ", "  ", "\t")
    lines = [f"#channels={channels}"] if channels != 1 else []
    lines.append("label," + ",".join(f"s{i}" for i in range(1, width + 1)))
    for _ in range(rows):
        if rng.random() < 0.05:
            lines.append(str(rng.choice(["", "   ", "\t"])))
        values = rng.normal(size=width) * 10.0 ** rng.integers(-6, 7)
        fields = [pads[rng.integers(len(pads))]
                  + formats[rng.integers(len(formats))].format(v)
                  + pads[rng.integers(len(pads))] for v in values]
        label = str(rng.choice(["N", "V", " A ", "f", "/"]))
        lines.append(",".join([label] + fields))
    return newline.join(lines) + newline


# a row of tiny values printed with few decimals can resample flat
@pytest.mark.filterwarnings("ignore::segdict.errors.FlatBeatWarning")
@pytest.mark.parametrize("seed,channels,newline",
                         [(0, 1, "\n"), (1, 2, "\n"), (2, 1, "\r\n"),
                          (3, 2, "\r\n")])
def test_matrix_parse_equals_per_line_parse(tmp_path, monkeypatch, seed,
                                            channels, newline):
    rng = np.random.default_rng(seed)
    path = tmp_path / "d.csv"
    path.write_bytes(random_csv(rng, channels, newline).encode("utf-8"))
    fast, parsed, slow = both_paths(monkeypatch, path)
    assert parsed
    assert_same_records(fast, slow)
    assert {r.channel_count for r in fast} == {channels}
    n = fast[0].per_channel_len
    for target_len in (2, 7, n, 3 * n + 1):
        beats = build_beat_matrix(fast, target_len)
        assert beats.labels == tuple(r.label for r in slow)
        assert (beats.samples.tobytes()
                == per_record(slow, target_len).tobytes())


BAD_ROWS = [
    ("bad token", GOOD.replace("3.25", "x")),
    ("nan", GOOD.replace("3.25", "nan")),
    ("inf", GOOD.replace("3.25", "inf")),
    ("overflow to inf", GOOD.replace("3.25", "-1e400")),
    # np.loadtxt's default comments="#" would read 2 from the last field
    ("comment sign", GOOD[:-1] + "2#3"),
    ("empty field", GOOD + ","),
    ("too short", "N,1,2,3"),
    ("label only", "N"),
]


@pytest.mark.parametrize("bad", [row for _, row in BAD_ROWS],
                         ids=[name for name, _ in BAD_ROWS])
def test_bad_row_fails_naming_its_row_on_both_paths(tmp_path, monkeypatch,
                                                    bad):
    # header, two good rows, a blank line, then the bad row: row 5
    path = tmp_path / "d.csv"
    path.write_text("\n".join(["label,a,b,c,d,e,f,g,h", GOOD, GOOD, "", bad,
                               GOOD]) + "\n", encoding="utf-8")
    fast, parsed, slow = both_paths(monkeypatch, path)
    assert not parsed
    assert fast == slow
    assert fast.startswith("ParseError: row 5: ")


def test_odd_row_of_a_two_channel_file_fails_naming_its_row(tmp_path,
                                                            monkeypatch):
    good = "N," + ",".join(str(v) for v in range(16))
    path = tmp_path / "d.csv"
    path.write_text(f"#channels=2\n{good}\n{good},16\n", encoding="utf-8")
    fast, parsed, slow = both_paths(monkeypatch, path)
    assert not parsed
    assert fast == slow
    assert fast.startswith("ParseError: row 3: 17 samples do not split")


@pytest.mark.parametrize("row,token", [(GOOD.replace("3.25", t), t)
                                       for t in ("1_0", "٣", "１")])
def test_tokens_only_float_reads_take_the_per_line_path(tmp_path,
                                                        monkeypatch, row,
                                                        token):
    # float() reads underscores and non-ASCII digits (1_0 as 10, ٣ as 3);
    # np.loadtxt does not, and the per-line path rejects them naming both
    path = tmp_path / "d.csv"
    path.write_text(f"{GOOD}\n{row}\n", encoding="utf-8")
    fast, parsed, slow = both_paths(monkeypatch, path)
    assert not parsed
    assert fast == slow == (f"ParseError: row 2: sample {token!r} holds '_' "
                            "or a non-ASCII character")


def test_ragged_rows_load_as_records_of_their_own_lengths(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "d.csv"
    path.write_text(f"{GOOD}\n{GOOD},8\n{GOOD}\n", encoding="utf-8")
    fast, parsed, slow = both_paths(monkeypatch, path)
    assert not parsed
    assert_same_records(fast, slow)
    assert [r.samples.size for r in fast] == [8, 9, 8]
    assert (build_beat_matrix(fast, 30).samples.tobytes()
            == per_record(fast, 30).tobytes())


def test_flat_beat_gets_a_zero_column_and_one_warning():
    rng = np.random.default_rng(7)
    records = [RawBeatRecord("N", rng.normal(size=12) * 5 + 2)
               for _ in range(300)]
    records[260] = RawBeatRecord("F", np.full(12, 3.5))
    with warnings.catch_warnings(record=True) as fast_warnings:
        warnings.simplefilter("always")
        beats = build_beat_matrix(records, 40)
    with warnings.catch_warnings(record=True) as slow_warnings:
        warnings.simplefilter("always")
        expected = per_record(records, 40)
    for caught in (fast_warnings, slow_warnings):
        assert [w.category for w in caught] == [FlatBeatWarning]
    assert not beats.samples[:, 260].any()
    assert beats.samples.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale,error", [(1e200, None), (1e308, ValueError)])
def test_overflowing_beats_end_as_one_at_a_time(scale, error):
    # at 1e200 the norm overflows to inf and the column comes out zero; at
    # 1e308 the interpolation overflows and normalize_beat rejects the beat
    records = [RawBeatRecord("N", np.arange(12.0)),
               RawBeatRecord("N", scale * np.resize([1.0, -1.0], 12))]
    if error is None:
        assert (build_beat_matrix(records, 30).samples.tobytes()
                == per_record(records, 30).tobytes())
        return
    with pytest.raises(error) as slow:
        per_record(records, 30)
    with pytest.raises(error) as fast:
        build_beat_matrix(records, 30)
    assert str(fast.value) == str(slow.value)
