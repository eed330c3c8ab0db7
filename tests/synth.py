"""Test-side WFDB writers (round-trip oracles) plus the synthetic generator.

The writers are independent encoders used to check the parsers; the ECG
generator itself ships in the package (ecgseg.synthetic) because scripts
and demos need it too.
"""

from __future__ import annotations

import struct

import numpy as np

from ecgseg.signal import EcgRecord
from ecgseg.synthetic import STANDARD_LEADS, make_ecg_record  # re-exported for tests
from ecgseg.wfdb import CODE_BY_SYMBOL

__all__ = [
    "STANDARD_LEADS",
    "TWO_CHANNEL_STREAM",
    "annotation_words",
    "encode_annotations",
    "make_ecg_record",
    "waves_to_events",
    "write_wfdb_fixture",
]


def encode_annotations(events) -> bytes:
    """Encode (sample, symbol) pairs as an MIT annotation stream.

    Deltas above 1023 are written as SKIP (long-delta) followed by the
    annotation word with delta zero.
    """
    out = bytearray()
    time = 0
    for sample, symbol in sorted(events):
        delta = sample - time
        code = CODE_BY_SYMBOL[symbol]
        if 0 <= delta <= 1023:
            out += struct.pack("<H", (code << 10) | delta)
        else:
            out += struct.pack("<H", 59 << 10)
            unsigned = delta & 0xFFFFFFFF
            out += struct.pack("<HH", (unsigned >> 16) & 0xFFFF, unsigned & 0xFFFF)
            out += struct.pack("<H", code << 10)
        time = sample
    out += b"\x00\x00"
    return bytes(out)


def annotation_words(words) -> bytes:
    """An MIT annotation stream of (code, delta) words, then the terminating zero word."""
    return struct.pack(f"<{len(words) + 1}H", *((code << 10) | delta for code, delta in words), 0)


# Channel 0's QRS (10, 12, 14) interleaved with channel 1's T (11, 13, 15): each
# CHN word (code 62) moves the event before it, and those after, to its channel.
TWO_CHANNEL_STREAM = annotation_words([(39, 10), (39, 1), (62, 1), (1, 1), (62, 0), (27, 1),
                                       (62, 1), (40, 1), (62, 0), (40, 1), (62, 1)])


def waves_to_events(waves):
    events = []
    peak_symbol = {"P": "p", "QRS": "N", "T": "t"}
    for w in waves:
        events.append((w.onset, "("))
        events.append((w.peak, peak_symbol[w.wave_type]))
        events.append((w.offset, ")"))
    return sorted(events)


def write_wfdb_fixture(directory, record: EcgRecord, waves_by_lead, gain=1000.0):
    """Write header, format-16 .dat, and per-lead annotation files.

    Signals are quantized to int16 at the given gain; each signal line
    carries the true initial value and 16-bit checksum. Returns the header
    path, the quantized raw matrix, and the annotation-file map.
    """
    directory.mkdir(parents=True, exist_ok=True)
    # -32767, not -32768: format 16 reserves -32768 for an invalid sample
    raw = np.clip(np.round(record.signals * gain), -32767, 32767).astype(np.int16)
    name = record.record_id
    lines = [f"{name} {len(record.leads)} {record.sampling_rate:g} {record.n_samples}"]
    for j, lead in enumerate(record.leads):
        checksum = (int(raw[j].sum(dtype=np.int64)) + 32768) % 65536 - 32768
        lines.append(f"{name}.dat 16 {gain:g}(0)/mV 16 0 {raw[j, 0]} {checksum} 0 {lead}")
    header_path = directory / f"{name}.hea"
    header_path.write_text("\n".join(lines) + "\n")
    (directory / f"{name}.dat").write_bytes(
        np.ascontiguousarray(raw.T).astype("<i2").tobytes()
    )
    ann_files = {}
    for lead, waves in waves_by_lead.items():
        path = directory / f"{name}.{lead}"
        path.write_bytes(encode_annotations(waves_to_events(waves)))
        ann_files[lead] = path
    return header_path, raw, ann_files
