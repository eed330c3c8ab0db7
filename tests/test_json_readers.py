"""Mutation fuzzing of the two JSON readers: the interchange record and the delineation.

Each example writes a seeded mutation of a small valid document to a file and
reads it back. The read returns a valid object or raises the reader's typed
error, whose message starts with the file's path.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgseg.delineate import MODES, DelineationError, DelineationResult, read_delineation
from ecgseg.wfdb import WAVE_TYPES, JsonFormatError, load_json_record

N_SAMPLES = 12
RECORD = {
    "record_id": "rec0",
    "sampling_rate": 500.0,
    "leads": [
        {"name": name, "samples_mV": [0.01 * i for i in range(N_SAMPLES)],
         "waves": [{"type": "P", "onset": 1, "peak": 2, "offset": 3},
                   {"type": "QRS", "onset": 5, "peak": 6, "offset": 7},
                   {"type": "T", "onset": 9, "peak": 10, "offset": 11}]}
        for name in ("i", "ii")
    ],
}
DELINEATION = {
    "record_id": "rec0",
    "mode": "per-lead",
    "sampling_rate": 500.0,
    "waves": [{"lead": "i", "type": "P", "onset": 1, "offset": 3},
              {"lead": "ii", "type": "QRS", "onset": 5, "offset": 7},
              {"lead": "ii", "type": "T", "onset": 9, "offset": 11}],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
OUTSIDE = st.sampled_from([-1, N_SAMPLES])  # the first sample index on either side of a record


def _slots(node):
    """Every (container, key) in a document, the root's children first."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else []
    for key in keys:
        yield node, key
        yield from _slots(node[key])


def _mutate(data, doc) -> bytes:
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        action = data.draw(st.sampled_from(["outside", "replace", "delete"]))
        if action == "outside":
            slots = [(parent, key) for parent, key in slots if type(parent[key]) is int] or slots
        parent, key = data.draw(st.sampled_from(slots))
        if action == "delete":
            del parent[key]
        else:
            parent[key] = data.draw(JSON_VALUES if action == "replace" else OUTSIDE)
    raw = json.dumps(doc).encode()
    if data.draw(st.integers(0, 7)) == 7:  # a cut, and some bytes that may not be UTF-8
        raw = raw[:data.draw(st.integers(0, len(raw)))] + data.draw(st.binary(max_size=2))
    return raw


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_record_reader_gives_a_record_or_an_error_naming_the_file(doc_path, data):
    doc_path.write_bytes(_mutate(data, RECORD))
    try:
        record, waves = load_json_record(doc_path)
    except JsonFormatError as exc:
        assert str(exc).startswith(f"{doc_path}: ")
        return
    assert list(waves) == record.leads
    for lead_waves in waves.values():
        for w in lead_waves:
            assert 0 <= w.onset <= w.peak <= w.offset < record.n_samples


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_delineation_reader_gives_a_delineation_or_an_error_naming_the_file(doc_path, data):
    doc_path.write_bytes(_mutate(data, DELINEATION))
    try:
        result = read_delineation(doc_path)
    except DelineationError as exc:
        assert str(exc).startswith(f"{doc_path}: ")
        return
    assert isinstance(result, DelineationResult) and result.mode in MODES
    for stream, predictions in result.streams.items():
        assert isinstance(stream, str)
        for w in predictions:
            assert w.wave_type in WAVE_TYPES and 0 <= w.onset <= w.offset


def test_delineation_wave_with_onset_after_offset_is_named(tmp_path):
    doc = json.loads(json.dumps(DELINEATION))
    doc["waves"][1].update(onset=9, offset=2)
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DelineationError) as info:
        read_delineation(path)
    assert str(info.value) == f"{path}: waves[1]: onset 9 after offset 2"
