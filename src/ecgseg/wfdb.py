"""LUDB-style WFDB parsing: text headers, format-16 signals, MIT annotations.

Also owns the JSON interchange document and per-sample segmentation masks.
Only storage format 16 is supported; other formats are rejected loudly.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signal import EcgRecord

MASK_NONE, MASK_P, MASK_QRS, MASK_T = 0, 1, 2, 3
WAVE_TYPES = ("P", "QRS", "T")
CLASS_INDEX = {"P": MASK_P, "QRS": MASK_QRS, "T": MASK_T}
CLASS_NAMES = {MASK_P: "P", MASK_QRS: "QRS", MASK_T: "T"}

# Standard MIT annotation mnemonics this toolkit understands.
SYMBOL_BY_CODE = {1: "N", 24: "p", 27: "t", 39: "(", 40: ")"}
CODE_BY_SYMBOL = {v: k for k, v in SYMBOL_BY_CODE.items()}
WAVE_BY_PEAK = {"p": "P", "N": "QRS", "t": "T"}

_SKIP, _NUM, _SUB, _CHN, _AUX = 59, 60, 61, 62, 63
_INVALID_SAMPLE = -32768  # format 16's marker for a sample that was not recorded


class WfdbError(ValueError):
    """Base for all parsing failures in this module."""


class HeaderParseError(WfdbError):
    pass


class UnsupportedFormatError(WfdbError):
    pass


class TruncatedFileError(WfdbError):
    pass


class TruncatedAnnotationError(WfdbError):
    pass


class InvalidAnnotationError(WfdbError):
    pass


class JsonFormatError(WfdbError):
    pass


class AnnotationWarning(UserWarning):
    """Recoverable oddity in an annotation stream (skipped content)."""


@dataclass
class SignalSpec:
    file_name: str
    format_code: int
    gain: float
    adc_zero: int
    units: str
    lead_name: str


@dataclass
class HeaderInfo:
    record_name: str
    n_signals: int
    sampling_rate: float
    n_samples: int
    signals: list[SignalSpec]

    @property
    def lead_names(self) -> list[str]:
        return [s.lead_name for s in self.signals]


def parse_header(text: str) -> HeaderInfo:
    """Parse a WFDB header: record line, then one line per signal.

    Comment lines (#) and unknown trailing fields are ignored.
    """
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise HeaderParseError("empty header")
    lineno, record_line = lines[0]
    fields = record_line.split()
    if len(fields) < 4:
        raise HeaderParseError(
            f"line {lineno}: record line needs 'name nsig fs nsamples', got {record_line!r}"
        )
    name = fields[0].split("/")[0]
    try:
        n_signals = int(fields[1])
        sampling_rate = float(fields[2].split("/")[0])
        n_samples = int(fields[3])
    except ValueError as exc:
        raise HeaderParseError(f"line {lineno}: {exc}") from None
    if n_signals < 1:
        raise HeaderParseError(f"line {lineno}: signal count must be >= 1")
    if not np.isfinite(sampling_rate) or sampling_rate <= 0:
        raise HeaderParseError(f"line {lineno}: sampling rate must be positive")
    if n_samples < 1:
        raise HeaderParseError(f"line {lineno}: sample count must be >= 1")

    signal_lines = lines[1:]
    if len(signal_lines) < n_signals:
        raise HeaderParseError(
            f"header declares {n_signals} signals but has {len(signal_lines)} signal lines"
        )
    specs = []
    for idx in range(n_signals):
        lineno, line = signal_lines[idx]
        specs.append(_parse_signal_line(lineno, line, idx))
    return HeaderInfo(
        record_name=name,
        n_signals=n_signals,
        sampling_rate=sampling_rate,
        n_samples=n_samples,
        signals=specs,
    )


def _parse_signal_line(lineno: int, line: str, idx: int) -> SignalSpec:
    tokens = line.split()
    if len(tokens) < 3:
        raise HeaderParseError(
            f"line {lineno}: signal line needs 'file format gain(adczero)/units ...', got {line!r}"
        )
    file_name = tokens[0]
    if not tokens[1].isdigit():
        raise UnsupportedFormatError(
            f"line {lineno}: storage format {tokens[1]!r} not supported (only 16)"
        )
    format_code = int(tokens[1])
    if format_code != 16:
        raise UnsupportedFormatError(
            f"line {lineno}: storage format {format_code} not supported (only 16)"
        )
    gain_token = tokens[2]
    gain_part, _, units = gain_token.partition("/")
    adc_zero = 0
    if "(" in gain_part:
        gain_str, _, zero_str = gain_part.partition("(")
        if not zero_str.endswith(")"):
            raise HeaderParseError(f"line {lineno}: malformed gain field {gain_token!r}")
        try:
            adc_zero = int(zero_str[:-1])
        except ValueError:
            raise HeaderParseError(f"line {lineno}: malformed gain field {gain_token!r}") from None
    else:
        gain_str = gain_part
    try:
        gain = float(gain_str)
    except ValueError:
        raise HeaderParseError(f"line {lineno}: malformed gain field {gain_token!r}") from None
    if not np.isfinite(gain) or gain <= 0:
        raise HeaderParseError(f"line {lineno}: gain must be positive, got {gain}")
    # Description is everything after the checksums when present, else the
    # last token; LUDB uses single-token lead names.
    if len(tokens) >= 9:
        lead_name = " ".join(tokens[8:])
    elif len(tokens) >= 4:
        lead_name = tokens[-1]
    else:
        lead_name = f"sig{idx}"
    return SignalSpec(
        file_name=file_name,
        format_code=format_code,
        gain=gain,
        adc_zero=adc_zero,
        units=units or "mV",
        lead_name=lead_name,
    )


def read_signal_format16(data: bytes, header: HeaderInfo) -> EcgRecord:
    """Decode interleaved 16-bit little-endian samples to mV.

    Physical value = (raw - adc_zero) / gain per signal. A raw -32768,
    the format's invalid-sample marker, becomes NaN, which EcgRecord
    rejects by record, lead and index.
    """
    expected = 2 * header.n_signals * header.n_samples
    if len(data) != expected:
        raise TruncatedFileError(
            f"record {header.record_name!r}: expected {expected} signal bytes, got {len(data)}"
        )
    raw = np.frombuffer(data, dtype="<i2").reshape(header.n_samples, header.n_signals)
    signals = np.empty((header.n_signals, header.n_samples), dtype=np.float64)
    for j, spec in enumerate(header.signals):
        signals[j] = (raw[:, j].astype(np.float64) - spec.adc_zero) / spec.gain
    signals[raw.T == _INVALID_SAMPLE] = np.nan
    return EcgRecord(
        record_id=header.record_name,
        leads=header.lead_names,
        signals=signals,
        sampling_rate=header.sampling_rate,
    )


@dataclass
class AnnotationEvent:
    sample: int
    symbol: str
    lead: int = 0


def parse_annotations(data: bytes) -> list[AnnotationEvent]:
    """Decode an MIT-format annotation stream to absolute-sample events.

    Words are 2-byte little-endian, code = word >> 10, delta = word & 0x3FF.
    SKIP carries a 4-byte signed long delta; CHN sets the lead of the
    preceding event and all following ones; NUM/SUB/AUX content is skipped.
    Unknown annotation codes advance time but emit no event (counted in a
    single AnnotationWarning).
    """
    if len(data) % 2:
        raise TruncatedAnnotationError("annotation stream has an odd byte count")
    words = np.frombuffer(data, dtype="<u2")
    events: list[AnnotationEvent] = []
    unknown = 0
    time = 0
    lead = 0
    i = 0
    n = words.size
    terminated = False
    while i < n:
        word = int(words[i])
        i += 1
        if word == 0:
            terminated = True
            break
        code = word >> 10
        delta = word & 0x3FF
        if code == _SKIP:
            if i + 2 > n:
                raise TruncatedAnnotationError("stream ends inside a SKIP long delta")
            long_delta = (int(words[i]) << 16) | int(words[i + 1])
            if long_delta >= 1 << 31:
                long_delta -= 1 << 32
            time += long_delta
            i += 2
        elif code == _AUX:
            aux_words = (delta + 1) // 2
            if i + aux_words > n:
                raise TruncatedAnnotationError("stream ends inside an AUX field")
            i += aux_words
        elif code in (_NUM, _SUB):
            pass
        elif code == _CHN:
            lead = delta
            if events:
                events[-1].lead = lead
        else:
            time += delta
            if time < 0:
                raise InvalidAnnotationError(f"annotation at negative sample {time}")
            symbol = SYMBOL_BY_CODE.get(code)
            if symbol is None:
                unknown += 1
            else:
                events.append(AnnotationEvent(sample=time, symbol=symbol, lead=lead))
    if not terminated:
        raise TruncatedAnnotationError("stream is missing the terminating zero word")
    if unknown:
        warnings.warn(f"skipped {unknown} annotation(s) with unknown codes", AnnotationWarning)
    return events


@dataclass
class WaveAnnotation:
    """One delineated wave: onset <= peak <= offset, sample indices."""

    wave_type: str
    onset: int
    peak: int
    offset: int
    lead: int = 0

    def __post_init__(self) -> None:
        if self.wave_type not in WAVE_TYPES:
            raise InvalidAnnotationError(f"unknown wave type {self.wave_type!r}")
        if not self.onset <= self.peak <= self.offset:
            raise InvalidAnnotationError(
                f"{self.wave_type} wave violates onset <= peak <= offset: "
                f"({self.onset}, {self.peak}, {self.offset})"
            )


def group_events(events: list[AnnotationEvent]) -> list[WaveAnnotation]:
    """Collect '(' peak ')' triples into waves, per lead.

    Malformed fragments (unmatched parens, missing peak) are skipped and
    reported through AnnotationWarning.
    """
    waves: list[WaveAnnotation] = []
    skipped = 0
    by_lead: dict[int, list[AnnotationEvent]] = {}
    for ev in events:
        by_lead.setdefault(ev.lead, []).append(ev)
    for lead in sorted(by_lead):
        onset: int | None = None
        peak: AnnotationEvent | None = None
        for ev in sorted(by_lead[lead], key=lambda e: e.sample):
            if ev.symbol == "(":
                if onset is not None:
                    skipped += 1
                onset, peak = ev.sample, None
            elif ev.symbol == ")":
                if onset is None or peak is None:
                    skipped += 1
                else:
                    waves.append(
                        WaveAnnotation(
                            wave_type=WAVE_BY_PEAK[peak.symbol],
                            onset=onset,
                            peak=peak.sample,
                            offset=ev.sample,
                            lead=lead,
                        )
                    )
                onset, peak = None, None
            else:
                if onset is None or peak is not None:
                    skipped += 1
                else:
                    peak = ev
        if onset is not None:
            skipped += 1
    if skipped:
        warnings.warn(f"skipped {skipped} malformed wave fragment(s)", AnnotationWarning)
    waves.sort(key=lambda w: (w.lead, w.onset))
    return waves


def to_mask(waves: list[WaveAnnotation], length: int) -> np.ndarray:
    """Per-sample labels over {NONE, P, QRS, T}; [onset, offset] inclusive."""
    mask = np.zeros(length, dtype=np.int8)
    for w in sorted(waves, key=lambda w: w.onset):
        if w.onset < 0 or w.offset >= length:
            raise InvalidAnnotationError(
                f"{w.wave_type} wave ({w.onset}, {w.offset}) outside [0, {length})"
            )
        cls = CLASS_INDEX[w.wave_type]
        region = mask[w.onset:w.offset + 1]
        if np.any((region != MASK_NONE) & (region != cls)):
            raise InvalidAnnotationError(
                f"{w.wave_type} wave ({w.onset}, {w.offset}) overlaps a different wave type"
            )
        region[:] = cls
    return mask


def record_to_json(record: EcgRecord, waves_by_lead: dict[str, list[WaveAnnotation]] | None = None) -> dict:
    """Build the interchange document (exact field names are normative)."""
    waves_by_lead = waves_by_lead or {}
    leads = []
    for i, name in enumerate(record.leads):
        leads.append(
            {
                "name": name,
                "samples_mV": record.signals[i].tolist(),
                "waves": [
                    {"type": w.wave_type, "onset": w.onset, "peak": w.peak, "offset": w.offset}
                    for w in waves_by_lead.get(name, [])
                ],
            }
        )
    return {
        "record_id": record.record_id,
        "sampling_rate": record.sampling_rate,
        "leads": leads,
    }


def _require(doc, key: str, where: str):
    if not isinstance(doc, dict):
        raise JsonFormatError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise JsonFormatError(f"{where}: missing required key {key!r}")
    return doc[key]


def _sample_index(doc, key: str, where: str) -> int:
    value = _require(doc, key, where)
    if type(value) is not int:  # int() would truncate 1.7 and take true as 1
        raise JsonFormatError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def record_from_json(doc: dict) -> tuple[EcgRecord, dict[str, list[WaveAnnotation]]]:
    record_id = _require(doc, "record_id", "document")
    sampling_rate = _require(doc, "sampling_rate", "document")
    leads_doc = _require(doc, "leads", "document")
    if not isinstance(leads_doc, list) or not leads_doc:
        raise JsonFormatError("document: 'leads' must be a non-empty list")
    names = []
    rows = []
    waves_by_lead: dict[str, list[WaveAnnotation]] = {}
    for li, lead_doc in enumerate(leads_doc):
        where = f"leads[{li}]"
        name = _require(lead_doc, "name", where)
        samples = _require(lead_doc, "samples_mV", where)
        waves_doc = _require(lead_doc, "waves", where)
        if not isinstance(waves_doc, list):
            raise JsonFormatError(f"{where}: waves must be a list")
        names.append(name)
        try:
            row = np.asarray(samples, dtype=np.float64)
        except (TypeError, ValueError):
            raise JsonFormatError(f"{where}: samples_mV must be a list of numbers") from None
        if row.ndim != 1:
            raise JsonFormatError(f"{where}: samples_mV must be a flat list")
        rows.append(row)
        waves = []
        for wi, w in enumerate(waves_doc):
            wwhere = f"{where}.waves[{wi}]"
            wave_type = _require(w, "type", wwhere)
            onset, peak, offset = (_sample_index(w, key, wwhere) for key in ("onset", "peak", "offset"))
            try:
                waves.append(WaveAnnotation(wave_type, onset, peak, offset, lead=li))
            except InvalidAnnotationError as exc:
                raise JsonFormatError(f"{wwhere}: {exc}") from None
        waves_by_lead[name] = waves
    lengths = {r.size for r in rows}
    if len(lengths) != 1:
        raise JsonFormatError(f"leads have unequal sample counts: {sorted(lengths)}")
    try:
        record = EcgRecord(
            record_id=record_id,
            leads=names,
            signals=np.vstack(rows),
            sampling_rate=sampling_rate,
        )
    except (TypeError, ValueError) as exc:
        raise JsonFormatError(f"document: {exc}") from None
    return record, waves_by_lead


def save_json_record(path, record: EcgRecord, waves_by_lead=None) -> None:
    Path(path).write_text(json.dumps(record_to_json(record, waves_by_lead)))


def load_json_record(path) -> tuple[EcgRecord, dict[str, list[WaveAnnotation]]]:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise JsonFormatError(f"{path}: not valid JSON ({exc})") from None
    return record_from_json(doc)


def read_header(path) -> HeaderInfo:
    """parse_header of a header file; one that is not UTF-8 is a HeaderParseError naming it."""
    try:
        return parse_header(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise HeaderParseError(f"{path}: not UTF-8 text ({exc})") from None


def read_wfdb_record(header_path, annotation_files: dict[str, Path | str] | None = None
                     ) -> tuple[EcgRecord, dict[str, list[WaveAnnotation]]]:
    """Read header + .dat + optional per-lead annotation files.

    ``annotation_files`` maps lead name -> annotation path (LUDB ships one
    file per lead, suffix = lead name); leads without an entry get an
    empty wave list.
    """
    header_path = Path(header_path)
    header = read_header(header_path)
    dat_names = {s.file_name for s in header.signals}
    if len(dat_names) != 1:
        raise UnsupportedFormatError(
            f"record {header.record_name!r} spans multiple signal files: {sorted(dat_names)}"
        )
    record = read_signal_format16((header_path.parent / dat_names.pop()).read_bytes(), header)
    waves_by_lead: dict[str, list[WaveAnnotation]] = {name: [] for name in record.leads}
    for lead_name, ann_path in (annotation_files or {}).items():
        lead_idx = record.lead_index(lead_name)
        events = parse_annotations(Path(ann_path).read_bytes())
        for ev in events:
            if ev.sample >= record.n_samples:
                raise InvalidAnnotationError(
                    f"annotation at sample {ev.sample} beyond record length {record.n_samples}"
                )
            ev.lead = lead_idx
        waves_by_lead[record.leads[lead_idx]] = group_events(events)
    return record, waves_by_lead
