"""Tail-follow JSONL reading: partial lines, mixed kinds, slow writers.

The service's stream endpoint reads worker spool files *while they are
being written*; every awkward flush boundary a real writer can produce
is reproduced here byte by byte.
"""

import json

import pytest

from repro.obs import JsonlTail, StepTrace, write_jsonl
from repro.euler import problems


def _append(path, data: bytes):
    with path.open("ab") as handle:
        handle.write(data)


def test_poll_on_missing_then_created_file(tmp_path):
    path = tmp_path / "spool.jsonl"
    tail = JsonlTail(path)
    assert tail.poll() == []  # not created yet — not an error
    _append(path, b'{"kind": "step", "step": 1}\n')
    assert [p["step"] for p in tail.poll()] == [1]
    assert tail.poll() == []


def test_partial_last_line_is_buffered_until_complete(tmp_path):
    path = tmp_path / "spool.jsonl"
    tail = JsonlTail(path)
    _append(path, b'{"kind": "step", "step": 1}\n{"kind": "st')
    polled = tail.poll()
    assert [p["step"] for p in polled] == [1]
    assert tail.pending_partial
    _append(path, b'ep", "step": 2}')
    assert tail.poll() == []  # still no newline
    _append(path, b"\n")
    assert [p["step"] for p in tail.poll()] == [2]
    assert not tail.pending_partial


def test_flush_inside_multibyte_utf8_sequence(tmp_path):
    path = tmp_path / "spool.jsonl"
    tail = JsonlTail(path)
    encoded = json.dumps(
        {"kind": "note", "text": "drüben"}, ensure_ascii=False
    ).encode("utf-8")
    split = encoded.index("ü".encode("utf-8")) + 1  # inside the 2-byte char
    _append(path, encoded[:split])
    assert tail.poll() == []
    _append(path, encoded[split:] + b"\n")
    assert tail.poll()[0]["text"] == "drüben"


def test_interleaved_kind_discriminators(tmp_path):
    path = tmp_path / "spool.jsonl"
    lines = [
        {"kind": "step", "step": 1},
        {"kind": "cache", "cache": "result", "hits": 3},
        {"kind": "step", "step": 2},
        {"kind": "diagnostic", "code": "SAC-IR001"},
        {"step": 3},  # no kind: defaults to "step" like read_jsonl
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert len(JsonlTail(path).poll()) == 5
    steps = JsonlTail(path, kinds={"step"}).poll()
    assert [p["step"] for p in steps] == [1, 2, 3]
    caches = JsonlTail(path, kinds={"cache"}).poll()
    assert caches[0]["hits"] == 3


def test_blank_lines_are_skipped_and_not_counted(tmp_path):
    path = tmp_path / "spool.jsonl"
    _append(path, b'\n\n{"kind": "step", "step": 7}\n\n')
    tail = JsonlTail(path)
    assert [p["step"] for p in tail.poll()] == [7]
    assert tail.lines_read == 1


def test_incremental_polls_never_duplicate(tmp_path):
    path = tmp_path / "spool.jsonl"
    tail = JsonlTail(path)
    seen = []
    for i in range(20):
        _append(path, json.dumps({"kind": "step", "step": i}).encode() + b"\n")
        if i % 3 == 0:
            seen.extend(p["step"] for p in tail.poll())
    seen.extend(p["step"] for p in tail.poll())
    assert seen == list(range(20))


def test_tail_reads_a_real_trace_export(tmp_path):
    solver, _ = problems.sod(n_cells=48)
    trace = StepTrace(capacity=32)
    solver.run(max_steps=5, watch=trace)
    path = tmp_path / "trace.jsonl"
    write_jsonl(trace, path)
    payloads = JsonlTail(path, kinds={"step"}).poll()
    assert [p["step"] for p in payloads] == [r.step for r in trace.records()]


def test_malformed_complete_line_raises(tmp_path):
    path = tmp_path / "spool.jsonl"
    _append(path, b'{"kind": "step", "step": 1}\n{not json}\n')
    tail = JsonlTail(path)
    with pytest.raises(json.JSONDecodeError):
        tail.poll()
