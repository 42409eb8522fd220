import json
import multiprocessing
import os
import sys
import threading

import pytest

from embreg.jsonl import JsonlLog


def _log(path):
    return JsonlLog(path, key=lambda rec: rec["k"], dumps=json.dumps)


def _lines(path):
    return [json.loads(line) for line in path.read_bytes().split(b"\n")[:-1]]


def test_append_writes_one_line_per_record_and_indexes_them(tmp_path):
    log = _log(tmp_path / "sub" / "log.jsonl")
    log.append([{"k": 1, "v": "a"}, {"k": 2, "v": "b"}])
    log.append([{"k": 1, "v": "c"}])
    assert _lines(log.path) == [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 1, "v": "c"}]
    assert log.index == {1: {"k": 1, "v": "c"}, 2: {"k": 2, "v": "b"}}
    assert _log(log.path).index == log.index


def test_torn_tail_is_left_unread_then_cut_before_the_next_append(tmp_path, caplog):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"k": 1}\n\n{"k": 2}\n{"k": 3, "v": "tor')
    log = _log(path)
    assert sorted(log.index) == [1, 2]
    assert log.torn_bytes == len(b'{"k": 3, "v": "tor')
    assert "torn final line of 18 bytes" in caplog.text

    log.append([{"k": 4}])
    assert log.torn_bytes == 0
    assert path.read_bytes() == b'{"k": 1}\n\n{"k": 2}\n{"k": 4}\n'
    assert sorted(_log(path).index) == [1, 2, 4]


def test_append_cuts_a_tail_torn_after_the_last_read(tmp_path):
    path = tmp_path / "log.jsonl"
    log = _log(path)
    log.append([{"k": 1}])
    with open(path, "ab") as f:  # another writer dies mid-line
        f.write(b'{"k": 2, "v"')
    log.append([{"k": 3}])
    assert _lines(path) == [{"k": 1}, {"k": 3}]


def test_refresh_reads_only_appended_complete_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    reader, writer = _log(path), _log(path)
    writer.append([{"k": 1}])
    with open(path, "ab") as f:
        f.write(b'{"k": 2}\n{"k": ')
    reader.refresh()
    assert sorted(reader.index) == [1, 2]
    first = reader.index[1]
    with open(path, "ab") as f:
        f.write(b'3}\n')
    reader.refresh()
    assert sorted(reader.index) == [1, 2, 3]
    assert reader.index[1] is first  # earlier lines are not parsed again
    assert reader.torn_bytes == 0


def test_refresh_starts_over_when_the_file_is_deleted_replaced_or_shrunk(tmp_path):
    path = tmp_path / "log.jsonl"
    log = _log(path)
    log.append([{"k": 1}, {"k": 2}])

    path.unlink()
    log.refresh()
    assert log.index == {}

    other = tmp_path / "other.jsonl"
    other.write_bytes(b'{"k": 7}\n')
    log.append([{"k": 3}])
    os.replace(other, path)
    log.refresh()
    assert sorted(log.index) == [7]

    path.write_bytes(b"")  # truncated in place: shorter than the offset
    log.refresh()
    assert log.index == {}
    log.append([{"k": 8}])
    assert _lines(path) == [{"k": 8}]


def _append_batches(path, writer, batches, size, start):
    log = JsonlLog(path, key=lambda rec: (rec["w"], rec["i"]), dumps=json.dumps)
    start.wait(timeout=60)
    for b in range(batches):
        log.append([{"w": writer, "i": b * size + j, "pad": "x" * 200} for j in range(size)])


def test_two_processes_append_without_interleaving(tmp_path):
    # Two writers started together with multi-page batches: without the file
    # lock, one reads the other's half-written batch as a torn tail and cuts it.
    path = tmp_path / "log.jsonl"
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(2)
    procs = [ctx.Process(target=_append_batches, args=(path, w, 300, 40, start)) for w in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
    assert [p.is_alive() for p in procs] == [False, False]
    assert [p.exitcode for p in procs] == [0, 0]
    records = _lines(path)  # every line parses
    assert sorted((r["w"], r["i"]) for r in records) == [(w, i) for w in range(2) for i in range(12000)]


def test_threads_sharing_one_log_lose_no_record(tmp_path):
    path = tmp_path / "log.jsonl"
    log = _log(path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda t=t: [log.append([{"k": (t, i)}]) for i in range(50)])
            for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(log.index) == 400
    assert len(_lines(path)) == 400


def test_malformed_complete_line_raises(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"k": 1}\nnot json\n')
    with pytest.raises(json.JSONDecodeError):
        _log(path)
