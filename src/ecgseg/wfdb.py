"""LUDB-style WFDB parsing: text headers, format-16 signals, MIT annotations.

Also owns the JSON interchange document and per-sample segmentation masks.
Only storage format 16 in millivolts is supported, and an annotation file
must hold the events of one channel; anything else is rejected loudly.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signal import EcgRecord, is_sampling_rate

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


class SignalChecksumError(WfdbError):
    """A signal's samples disagree with its header's initial value or checksum."""


class AnnotationWarning(UserWarning):
    """Recoverable oddity in an annotation stream (skipped content)."""


@dataclass
class SignalSpec:
    file_name: str
    gain: float
    adc_zero: int
    lead_name: str
    initial_value: int | None = None
    checksum: int | None = None


@dataclass
class HeaderInfo:
    record_name: str
    sampling_rate: float
    n_samples: int
    signals: list[SignalSpec]

    @property
    def lead_names(self) -> list[str]:
        return [s.lead_name for s in self.signals]


def _is_file_name(record_id: str) -> bool:
    """Whether ``record_id`` can name its record's own file: not empty, . or .., and no "/"."""
    return record_id not in ("", ".", "..") and "/" not in record_id


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
    if not _is_file_name(name):
        raise HeaderParseError(f"line {lineno}: record name {name!r} is not a file name")
    try:
        n_signals = int(fields[1])
        sampling_rate = float(fields[2].split("/")[0])
        n_samples = int(fields[3])
    except ValueError as exc:
        raise HeaderParseError(f"line {lineno}: {exc}") from None
    if n_signals < 1:
        raise HeaderParseError(f"line {lineno}: signal count must be >= 1")
    if not is_sampling_rate(sampling_rate):
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
    return HeaderInfo(record_name=name, sampling_rate=sampling_rate, n_samples=n_samples,
                      signals=specs)


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
    gain_str, paren, zero_str = gain_part.partition("(")  # gain(baseline)
    try:
        if paren and not zero_str.endswith(")"):
            raise ValueError(zero_str)
        gain, adc_zero = float(gain_str), (int(zero_str[:-1]) if paren else 0)
    except ValueError:
        raise HeaderParseError(f"line {lineno}: malformed gain field {gain_token!r}") from None
    if not np.isfinite(gain) or gain <= 0:
        raise HeaderParseError(f"line {lineno}: gain must be positive, got {gain}")
    if units not in ("", "mV"):  # no units means mV
        raise UnsupportedFormatError(f"line {lineno}: units {units!r} not supported (only mV)")
    # A full line has adcres, adczero, initial value, checksum and block size
    # before the description; a shorter one is read with its description as
    # the last token. LUDB uses single-token lead names.
    initial_value = checksum = None
    if len(tokens) >= 9:
        lead_name = " ".join(tokens[8:])
        try:
            initial_value, checksum = int(tokens[5]), int(tokens[6])
        except ValueError:
            raise HeaderParseError(
                f"line {lineno}: initial value and checksum must be integers, "
                f"got {tokens[5]!r} and {tokens[6]!r}"
            ) from None
        if not paren:  # WFDB's baseline defaults to the ADC zero
            try:
                adc_zero = int(tokens[4])
            except ValueError:
                raise HeaderParseError(
                    f"line {lineno}: ADC zero must be an integer, got {tokens[4]!r}") from None
    elif len(tokens) >= 4:
        lead_name = tokens[-1]
    else:
        lead_name = f"sig{idx}"
    return SignalSpec(
        file_name=file_name,
        gain=gain,
        adc_zero=adc_zero,
        lead_name=lead_name,
        initial_value=initial_value,
        checksum=checksum,
    )


def read_signal_format16(data: bytes, header: HeaderInfo) -> EcgRecord:
    """Decode interleaved 16-bit little-endian samples to mV.

    Physical value = (raw - adc_zero) / gain per signal, where ``adc_zero``
    holds the header's baseline. A raw -32768, the format's invalid-sample
    marker, becomes NaN, which EcgRecord rejects by record, lead and index.
    A signal whose header line carries an initial value and checksum must
    then match them: the first raw sample, and the 16-bit two's-complement
    sum of all of them.
    """
    n_signals = len(header.signals)
    expected = 2 * n_signals * header.n_samples
    if len(data) != expected:
        raise TruncatedFileError(
            f"record {header.record_name!r}: expected {expected} signal bytes, got {len(data)}"
        )
    raw = np.frombuffer(data, dtype="<i2").reshape(header.n_samples, n_signals)
    signals = np.empty((n_signals, header.n_samples), dtype=np.float64)
    for j, spec in enumerate(header.signals):
        signals[j] = (raw[:, j].astype(np.float64) - spec.adc_zero) / spec.gain
    signals[raw.T == _INVALID_SAMPLE] = np.nan
    record = EcgRecord(
        record_id=header.record_name,
        leads=header.lead_names,
        signals=signals,
        sampling_rate=header.sampling_rate,
    )
    for j, spec in enumerate(header.signals):
        if spec.checksum is None:
            continue
        where = f"record {header.record_name!r}: signal {j} ({spec.lead_name!r})"
        first = int(raw[0, j])
        if first != spec.initial_value:
            raise SignalChecksumError(
                f"{where}: header initial value {spec.initial_value}, first sample {first}"
            )
        checksum = (int(raw[:, j].sum(dtype=np.int64)) + 32768) % 65536 - 32768
        if checksum != spec.checksum:
            raise SignalChecksumError(
                f"{where}: header checksum {spec.checksum}, samples sum to {checksum}"
            )
    return record


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


def require_key(doc, key: str, where: str, error: type[Exception]):
    """``doc[key]``; ``error`` naming ``where`` if doc is not an object or lacks the key."""
    if not isinstance(doc, dict):
        raise error(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise error(f"{where}: missing required key {key!r}")
    return doc[key]


def sample_index(doc, key: str, where: str, error: type[Exception]) -> int:
    """``require_key`` of a value that must be a JSON integer."""
    value = require_key(doc, key, where, error)
    if type(value) is not int:  # int() would truncate 1.7 and take true as 1
        raise error(f"{where}: {key} must be an integer, got {value!r}")
    return value


def read_json(path, parse, error: type[Exception]):
    """``parse`` of the JSON document in a UTF-8 file.

    Bad JSON, and any ``error`` that ``parse`` raises, is raised as
    ``error`` with the path in front.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None
    try:
        return parse(doc)
    except error as exc:
        raise error(f"{path}: {exc}") from None


def record_from_json(doc: dict) -> tuple[EcgRecord, dict[str, list[WaveAnnotation]]]:
    record_id = require_key(doc, "record_id", "document", JsonFormatError)
    if not isinstance(record_id, str):
        raise JsonFormatError(f"document: record_id must be a string, got {record_id!r}")
    if not _is_file_name(record_id):
        raise JsonFormatError(f"record_id {record_id!r} is not a file name")
    sampling_rate = require_key(doc, "sampling_rate", "document", JsonFormatError)
    leads_doc = require_key(doc, "leads", "document", JsonFormatError)
    if not isinstance(leads_doc, list) or not leads_doc:
        raise JsonFormatError("document: 'leads' must be a non-empty list")
    names = []
    rows = []
    wave_lists = []
    for li, lead_doc in enumerate(leads_doc):
        where = f"leads[{li}]"
        name = require_key(lead_doc, "name", where, JsonFormatError)
        samples = require_key(lead_doc, "samples_mV", where, JsonFormatError)
        waves_doc = require_key(lead_doc, "waves", where, JsonFormatError)
        if not isinstance(waves_doc, list):
            raise JsonFormatError(f"{where}: waves must be a list")
        names.append(name)
        try:
            row = np.asarray(samples, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise JsonFormatError(f"{where}: samples_mV must be a list of numbers") from None
        if row.ndim != 1:
            raise JsonFormatError(f"{where}: samples_mV must be a flat list")
        rows.append(row)
        waves = []
        for wi, w in enumerate(waves_doc):
            wwhere = f"{where}.waves[{wi}]"
            wave_type = require_key(w, "type", wwhere, JsonFormatError)
            onset, peak, offset = (sample_index(w, key, wwhere, JsonFormatError)
                                   for key in ("onset", "peak", "offset"))
            try:
                waves.append(WaveAnnotation(wave_type, onset, peak, offset, lead=li))
            except InvalidAnnotationError as exc:
                raise JsonFormatError(f"{wwhere}: {exc}") from None
            if onset < 0 or offset >= row.size:
                raise JsonFormatError(
                    f"{wwhere}: {wave_type} wave ({onset}, {offset}) outside [0, {row.size})"
                )
        wave_lists.append(waves)
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
    return record, dict(zip(names, wave_lists))


def save_json_record(path, record: EcgRecord, waves_by_lead=None) -> None:
    Path(path).write_text(json.dumps(record_to_json(record, waves_by_lead)))


def load_json_record(path) -> tuple[EcgRecord, dict[str, list[WaveAnnotation]]]:
    return read_json(path, record_from_json, JsonFormatError)


def read_header(path) -> HeaderInfo:
    """parse_header of a header file; one that is not UTF-8 is a HeaderParseError naming it."""
    try:
        return parse_header(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise HeaderParseError(f"{path}: not UTF-8 text ({exc})") from None


def read_wfdb_record(header_path, annotation_files: dict[str, Path | str] | None = None,
                     header: HeaderInfo | None = None,
                     ) -> tuple[EcgRecord, dict[str, list[WaveAnnotation]]]:
    """Read header + .dat + optional per-lead annotation files.

    ``annotation_files`` maps lead name -> annotation path (LUDB ships one
    file per lead, suffix = lead name); leads without an entry get an
    empty wave list. A file whose events name more than one channel is
    refused: its waves could not be told apart once given the lead.
    """
    header_path = Path(header_path)
    header = header or read_header(header_path)
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
        channels = sorted({ev.lead for ev in events})
        if len(channels) > 1:
            raise UnsupportedFormatError(
                f"{ann_path}: annotations span channels {channels} (only one per file)"
            )
        for ev in events:
            if ev.sample >= record.n_samples:
                raise InvalidAnnotationError(
                    f"annotation at sample {ev.sample} beyond record length {record.n_samples}"
                )
            ev.lead = lead_idx
        waves_by_lead[record.leads[lead_idx]] = group_events(events)
    return record, waves_by_lead
