"""The shared JSONL journal primitive (``repro.engine.journal``).

One contract under ``pimsim batch --resume``, ``pimsim tune --resume``
and the ``pimsim serve`` store: torn tails are terminated on open,
replay skips what it cannot parse, ``fsync=True`` means durable before
``append`` returns, ``rewrite`` replaces the file atomically, and every
line written or replayed has a byte-exact span that ``read`` reads back.
"""

import json
import os

import pytest

from repro.engine.journal import Journal


def _records(path):
    return [record for record, _span in Journal.replay(path)]


def _open(tmp_path, **kw):
    kw.setdefault("fsync", False)
    return Journal(tmp_path / "j.jsonl", **kw)


def test_append_then_replay_round_trips(tmp_path):
    journal = _open(tmp_path)
    journal.append({"a": 1})
    journal.append({"b": [1, 2], "c": {"d": None}})
    # flushed per record: visible to a reader before close
    assert _records(journal.path) == [
        {"a": 1}, {"b": [1, 2], "c": {"d": None}}]
    journal.close()
    assert journal.path.read_text().count("\n") == 2


def test_missing_file_replays_empty(tmp_path):
    assert _records(tmp_path / "never-written.jsonl") == []


def test_open_creates_parent_directories(tmp_path):
    journal = Journal(tmp_path / "a" / "b" / "j.jsonl", fsync=False)
    journal.append({"k": 1})
    journal.close()
    assert _records(journal.path) == [{"k": 1}]


def test_torn_tail_is_terminated_before_the_first_append(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text(json.dumps({"n": 0}) + "\n" + '{"n": 1, "torn')
    journal = Journal(path, fsync=False)
    journal.append({"n": 2})
    journal.close()
    lines = path.read_text().splitlines()
    assert lines == [json.dumps({"n": 0}), '{"n": 1, "torn',
                     json.dumps({"n": 2})]
    assert _records(path) == [{"n": 0}, {"n": 2}]


def test_clean_tail_is_left_alone(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text(json.dumps({"n": 0}) + "\n")
    Journal(path, fsync=False).close()
    assert path.read_text() == json.dumps({"n": 0}) + "\n"


def test_foreign_and_non_dict_lines_are_skipped_and_preserved(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"n": 0}\n# a comment\n[1, 2, 3]\n"a string"\n42\n\n'
                     b'\xff\xfe not even utf-8\n')
    before = path.read_bytes()
    journal = Journal(path, fsync=False)
    journal.append({"n": 1})
    journal.close()
    assert _records(path) == [{"n": 0}, {"n": 1}]
    assert path.read_bytes().startswith(before), \
        "lines the journal cannot parse are never rewritten or dropped"


@pytest.mark.parametrize("fsync, per_append", [(True, 1), (False, 0)])
def test_fsync_once_per_append_or_never(tmp_path, monkeypatch, fsync,
                                        per_append):
    calls = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (calls.append(fd), real(fd))[1])
    journal = _open(tmp_path, fsync=fsync)
    assert calls == [], "opening a journal syncs nothing"
    for n in range(3):
        journal.append({"n": n})
        assert len(calls) == per_append * (n + 1)
    journal.close()


def test_rewrite_replaces_contents_and_keeps_appending(tmp_path):
    journal = _open(tmp_path)
    for n in range(5):
        journal.append({"n": n})
    journal.rewrite({"snapshot": n} for n in (3, 4))
    journal.append({"n": 5})
    journal.close()
    assert _records(journal.path) == [
        {"snapshot": 3}, {"snapshot": 4}, {"n": 5}]


def test_rewrite_is_atomic_when_the_writer_raises(tmp_path):
    journal = _open(tmp_path)
    journal.append({"n": 0})
    before = journal.path.read_bytes()

    def records():
        yield {"snapshot": 0}
        raise RuntimeError("died mid-compaction")

    with pytest.raises(RuntimeError):
        journal.rewrite(records())
    assert journal.path.read_bytes() == before, "old journal intact"
    journal.append({"n": 1})  # and the handle still appends to it
    journal.close()
    assert _records(journal.path) == [{"n": 0}, {"n": 1}]


def test_rewrite_syncs_before_the_rename(tmp_path, monkeypatch):
    """Compaction is durable whatever the append policy: the new file is
    fsync'd before it replaces the old one."""
    order = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(
        os, "fsync", lambda fd: (order.append("fsync"), real_fsync(fd))[1])
    monkeypatch.setattr(
        os, "replace",
        lambda a, b: (order.append("replace"), real_replace(a, b))[1])
    journal = _open(tmp_path, fsync=False)
    journal.rewrite([{"n": 0}])
    journal.close()
    assert order == ["fsync", "replace"]


def test_append_spans_read_back_and_match_replay(tmp_path):
    journal = _open(tmp_path)
    records = [{"n": n, "pad": "x" * n} for n in range(5)]
    spans = [journal.append(record) for record in records]
    assert spans[0] == (0, len(json.dumps(records[0])) + 1)
    for (offset, length), (next_offset, _) in zip(spans, spans[1:]):
        assert offset + length == next_offset, "spans tile the file"
    assert [journal.read(span) for span in spans] == records
    assert list(Journal.replay(journal.path)) == list(zip(records, spans))
    journal.close()


def test_spans_are_byte_exact_after_a_non_utf8_line(tmp_path):
    """Offsets count bytes, not decoded characters: a line with invalid
    UTF-8 (decoded with replacement characters) must not shift them."""
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"n": 0}\n\xff\xfe\xc3 not utf-8\n{"s": "\xc3\xa9t\xc3\xa9"}\n')
    journal = Journal(path, fsync=False)
    span = journal.append({"n": 1})
    replayed = list(Journal.replay(path))
    assert [record for record, _span in replayed] == [
        {"n": 0}, {"s": "été"}, {"n": 1}]
    assert replayed[-1][1] == span
    assert [journal.read(s) for _record, s in replayed] == [
        record for record, _span in replayed]
    journal.close()


def test_spans_after_a_torn_tail_count_the_terminating_newline(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"n": 0}\n{"n": 1, "to')
    journal = Journal(path, fsync=False)
    span = journal.append({"n": 2})
    assert span[0] == len(b'{"n": 0}\n{"n": 1, "to\n')
    assert journal.read(span) == {"n": 2}
    assert list(Journal.replay(path))[-1] == ({"n": 2}, span)
    journal.close()


def test_rewrite_returns_the_new_spans(tmp_path):
    journal = _open(tmp_path)
    old = [journal.append({"n": n}) for n in range(3)]

    def snapshots():  # reads the old contents while the new file is written
        for span in reversed(old):
            yield {"snapshot": journal.read(span)["n"]}
    spans = journal.rewrite(snapshots())
    assert [journal.read(span) for span in spans] == [
        {"snapshot": 2}, {"snapshot": 1}, {"snapshot": 0}]
    appended = journal.append({"n": 3})
    assert appended[0] == sum(length for _offset, length in spans)
    assert list(Journal.replay(journal.path)) == [
        ({"snapshot": 2}, spans[0]), ({"snapshot": 1}, spans[1]),
        ({"snapshot": 0}, spans[2]), ({"n": 3}, appended)]
    journal.close()
