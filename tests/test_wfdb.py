import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgseg.signal import SignalError
from ecgseg.wfdb import (
    AnnotationEvent,
    AnnotationWarning,
    HeaderParseError,
    InvalidAnnotationError,
    JsonFormatError,
    TruncatedAnnotationError,
    TruncatedFileError,
    UnsupportedFormatError,
    WaveAnnotation,
    group_events,
    load_json_record,
    parse_annotations,
    parse_header,
    read_signal_format16,
    read_wfdb_record,
    record_from_json,
    record_to_json,
    to_mask,
)
from synth import encode_annotations, make_ecg_record, waves_to_events, write_wfdb_fixture

TWELVE_LEAD_HEADER = "\n".join(
    ["1 12 500 5000"]
    + [
        f"1.dat 16 1000(0)/mV 16 0 0 0 0 {lead}"
        for lead in ["i", "ii", "iii", "avr", "avl", "avf", "v1", "v2", "v3", "v4", "v5", "v6"]
    ]
)


class TestParseHeader:
    def test_ludb_shaped_header(self):
        h = parse_header(TWELVE_LEAD_HEADER)
        assert h.n_signals == 12
        assert h.sampling_rate == 500.0
        assert h.n_samples == 5000
        assert h.lead_names[:3] == ["i", "ii", "iii"]

    def test_empty_input(self):
        with pytest.raises(HeaderParseError):
            parse_header("")

    def test_gain_field_with_zero_and_units(self):
        h = parse_header("r 1 360 100\nr.dat 16 1000(12)/mV 16 0 0 0 0 ii")
        assert h.signals[0].gain == 1000.0
        assert h.signals[0].adc_zero == 12
        assert h.signals[0].units == "mV"

    def test_malformed_record_line_reports_line_number(self):
        with pytest.raises(HeaderParseError, match="line 1"):
            parse_header("only three fields")

    def test_unsupported_format_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            parse_header("r 1 500 100\nr.dat 212 1000(0)/mV 16 0 0 0 0 ii")
        with pytest.raises(UnsupportedFormatError):
            parse_header("r 1 500 100\nr.dat 16x2 1000(0)/mV 16 0 0 0 0 ii")

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\nr 1 500 10\n# another\nr.dat 16 200/mV 16 0 0 0 0 ii\n#age: 54\n"
        h = parse_header(text)
        assert h.n_samples == 10
        assert h.signals[0].adc_zero == 0

    def test_missing_signal_lines(self):
        with pytest.raises(HeaderParseError, match="2 signals"):
            parse_header("r 2 500 10\nr.dat 16 1000(0)/mV 16 0 0 0 0 i")


class TestReadSignal:
    def header(self, nsig=1, nsamp=4, gain=1000.0, zero=0):
        lines = [f"r {nsig} 500 {nsamp}"]
        for j in range(nsig):
            lines.append(f"r.dat 16 {gain:g}({zero})/mV 16 0 0 0 0 ch{j}")
        return parse_header("\n".join(lines))

    def test_zero_raw_is_zero_mv(self):
        rec = read_signal_format16(struct.pack("<4h", 0, 0, 0, 0), self.header())
        np.testing.assert_array_equal(rec.signals, [[0.0, 0.0, 0.0, 0.0]])

    def test_unit_gain_conversion(self):
        rec = read_signal_format16(struct.pack("<4h", 1000, -1000, 500, 0), self.header())
        np.testing.assert_allclose(rec.signals[0], [1.0, -1.0, 0.5, 0.0])

    def test_adc_zero_subtracted(self):
        rec = read_signal_format16(struct.pack("<4h", 12, 12, 13, 11), self.header(zero=12))
        np.testing.assert_allclose(rec.signals[0], [0.0, 0.0, 0.001, -0.001])

    def test_byte_count_mismatch(self):
        with pytest.raises(TruncatedFileError):
            read_signal_format16(b"\x00\x00\x00", self.header())

    def test_invalid_sample_marker_rejected_by_lead_and_index(self):
        data = struct.pack("<6h", 5, 7, -32768, 8, 9, 10)
        with pytest.raises(SignalError, match=r"record 'r': lead 'ch0' .* at index 1"):
            read_signal_format16(data, self.header(nsig=2, nsamp=3))

    def test_most_negative_valid_sample_decodes(self):
        rec = read_signal_format16(struct.pack("<4h", -32767, 0, 0, 0), self.header())
        assert rec.signals[0, 0] == -32.767

    def test_interleaving_round_trip(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(-3000, 3000, size=(7, 3), dtype=np.int16)
        rec = read_signal_format16(raw.astype("<i2").tobytes(), self.header(nsig=3, nsamp=7))
        back = np.round(rec.signals * 1000.0).astype(np.int16)
        np.testing.assert_array_equal(back, raw.T)


class TestParseAnnotations:
    def test_empty_stream(self):
        assert parse_annotations(b"\x00\x00") == []

    def test_hand_encoded_pair(self):
        words = struct.pack("<3H", (39 << 10) | 100, (1 << 10) | 20, 0)
        events = parse_annotations(words)
        assert [(e.sample, e.symbol) for e in events] == [(100, "("), (120, "N")]

    def test_skip_long_delta(self):
        # onset 5000 samples in: needs SKIP, then '(' with delta 0
        data = encode_annotations([(5000, "("), (5020, "N"), (5040, ")")])
        events = parse_annotations(data)
        assert [(e.sample, e.symbol) for e in events] == [
            (5000, "("), (5020, "N"), (5040, ")")
        ]

    def test_unknown_codes_warn_but_keep_time(self):
        # code 28 (rhythm change) advances time and is skipped
        words = struct.pack("<4H", (28 << 10) | 50, (39 << 10) | 10, (1 << 10) | 5, 0)
        with pytest.warns(AnnotationWarning):
            events = parse_annotations(words)
        assert [(e.sample, e.symbol) for e in events] == [(60, "("), (65, "N")]

    def test_chn_sets_lead_retroactively_and_onward(self):
        words = struct.pack(
            "<5H", (39 << 10) | 10, (62 << 10) | 3, (1 << 10) | 5, (40 << 10) | 5, 0
        )
        events = parse_annotations(words)
        assert [(e.sample, e.lead) for e in events] == [(10, 3), (15, 3), (20, 3)]

    def test_aux_payload_skipped(self):
        aux = b"hi!"
        words = (
            struct.pack("<H", (39 << 10) | 7)
            + struct.pack("<H", (63 << 10) | len(aux))
            + aux + b"\x00"  # padded to word boundary
            + struct.pack("<2H", (40 << 10) | 3, 0)
        )
        events = parse_annotations(words)
        assert [(e.sample, e.symbol) for e in events] == [(7, "("), (10, ")")]

    def test_skip_negative_long_delta_decoded_as_signed(self):
        # event at 300, SKIP of -200, then ')' with delta 0 -> sample 100
        words = struct.pack(
            "<6H",
            (39 << 10) | 300,
            59 << 10, 0xFFFF, 0xFF38,  # -200 as a 32-bit two's complement pair
            (40 << 10) | 0,
            0,
        )
        events = parse_annotations(words)
        assert [(e.sample, e.symbol) for e in events] == [(300, "("), (100, ")")]

    def test_truncation_errors(self):
        with pytest.raises(TruncatedAnnotationError):
            parse_annotations(b"\x00")  # odd byte count
        with pytest.raises(TruncatedAnnotationError):
            parse_annotations(struct.pack("<H", (39 << 10) | 1))  # no terminator
        with pytest.raises(TruncatedAnnotationError):
            parse_annotations(struct.pack("<2H", 59 << 10, 1))  # SKIP cut short

    @given(
        st.lists(st.integers(0, 200_000), min_size=0, max_size=40, unique=True),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_round_trip(self, samples, data):
        symbols = ["(", ")", "p", "N", "t"]
        events = [
            (s, data.draw(st.sampled_from(symbols), label="sym")) for s in sorted(samples)
        ]
        decoded = parse_annotations(encode_annotations(events))
        assert [(e.sample, e.symbol) for e in decoded] == events


class TestParserRobustness:
    """Adversarial inputs must raise WfdbError subclasses, never crash."""

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_annotation_parser_contains_failures(self, blob):
        import warnings as _warnings

        from ecgseg.wfdb import WfdbError

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            try:
                parse_annotations(blob)
            except WfdbError:
                pass

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_header_parser_contains_failures(self, text):
        from ecgseg.wfdb import WfdbError

        try:
            parse_header(text)
        except WfdbError:
            pass

    def test_json_reader_rejects_wrong_shapes(self):
        from ecgseg.wfdb import record_from_json

        with pytest.raises(JsonFormatError, match="object"):
            record_from_json({"record_id": "x", "sampling_rate": 1, "leads": [5]})
        with pytest.raises(JsonFormatError, match="numbers"):
            record_from_json(
                {"record_id": "x", "sampling_rate": 1,
                 "leads": [{"name": "i", "samples_mV": ["a"], "waves": []}]}
            )
        with pytest.raises(JsonFormatError, match="onset"):
            record_from_json(
                {"record_id": "x", "sampling_rate": 1,
                 "leads": [{"name": "i", "samples_mV": [0.0],
                            "waves": [{"type": "P", "onset": 5, "peak": 1, "offset": 9}]}]}
            )
        with pytest.raises(JsonFormatError, match="positive"):
            record_from_json(
                {"record_id": "x", "sampling_rate": -5,
                 "leads": [{"name": "i", "samples_mV": [0.0], "waves": []}]}
            )


class TestGroupEvents:
    def test_simple_triple(self):
        events = [AnnotationEvent(100, "("), AnnotationEvent(110, "N"), AnnotationEvent(130, ")")]
        waves = group_events(events)
        assert len(waves) == 1
        w = waves[0]
        assert (w.wave_type, w.onset, w.peak, w.offset) == ("QRS", 100, 110, 130)

    def test_empty(self):
        assert group_events([]) == []

    def test_missing_peak_skipped_with_warning(self):
        events = [AnnotationEvent(100, "("), AnnotationEvent(130, ")")]
        with pytest.warns(AnnotationWarning):
            assert group_events(events) == []

    def test_unmatched_fragments_skipped(self):
        events = [
            AnnotationEvent(10, ")"),
            AnnotationEvent(20, "("),
            AnnotationEvent(25, "p"),
            AnnotationEvent(30, ")"),
            AnnotationEvent(40, "("),
            AnnotationEvent(45, "t"),
        ]
        with pytest.warns(AnnotationWarning):
            waves = group_events(events)
        assert [(w.wave_type, w.onset, w.offset) for w in waves] == [("P", 20, 30)]

    def test_leads_grouped_independently(self):
        events = [
            AnnotationEvent(10, "(", lead=0),
            AnnotationEvent(12, "N", lead=0),
            AnnotationEvent(14, ")", lead=0),
            AnnotationEvent(11, "(", lead=1),
            AnnotationEvent(13, "t", lead=1),
            AnnotationEvent(15, ")", lead=1),
        ]
        waves = group_events(events)
        assert [(w.lead, w.wave_type) for w in waves] == [(0, "QRS"), (1, "T")]

    def test_wave_order_invariant(self):
        rec_waves = make_ecg_record(seed=5)[1]["ii"]
        events = [
            AnnotationEvent(s, sym, lead=0) for s, sym in waves_to_events(rec_waves)
        ]
        waves = group_events(events)
        assert all(a.offset < b.onset for a, b in zip(waves, waves[1:]))
        assert all(w.onset <= w.peak <= w.offset for w in waves)


class TestToMask:
    def test_no_waves_all_none(self):
        np.testing.assert_array_equal(to_mask([], 5), np.zeros(5))

    def test_single_p_wave_inclusive_interval(self):
        mask = to_mask([WaveAnnotation("P", 10, 15, 20)], 30)
        assert mask[9] == 0 and mask[21] == 0
        np.testing.assert_array_equal(mask[10:21], np.ones(11))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidAnnotationError):
            to_mask([WaveAnnotation("P", 10, 15, 30)], 30)

    def test_overlap_of_different_types_rejected(self):
        waves = [WaveAnnotation("P", 0, 5, 10), WaveAnnotation("QRS", 8, 9, 12)]
        with pytest.raises(InvalidAnnotationError):
            to_mask(waves, 20)


class TestJsonInterchange:
    def test_round_trip(self):
        record, waves = make_ecg_record(seed=2, n_leads=3)
        doc = record_to_json(record, waves)
        back, back_waves = record_from_json(doc)
        assert back.record_id == record.record_id
        assert back.leads == record.leads
        assert back.sampling_rate == record.sampling_rate
        np.testing.assert_array_equal(back.signals, record.signals)
        for name in record.leads:
            assert [
                (w.wave_type, w.onset, w.peak, w.offset) for w in back_waves[name]
            ] == [(w.wave_type, w.onset, w.peak, w.offset) for w in waves[name]]

    def test_missing_key_named(self):
        record, waves = make_ecg_record(seed=3, n_leads=1)
        doc = record_to_json(record, waves)
        del doc["sampling_rate"]
        with pytest.raises(JsonFormatError, match="sampling_rate"):
            record_from_json(doc)

    def test_missing_nested_key_named(self):
        record, waves = make_ecg_record(seed=3, n_leads=1)
        doc = record_to_json(record, waves)
        del doc["leads"][0]["samples_mV"]
        with pytest.raises(JsonFormatError, match="samples_mV"):
            record_from_json(doc)

    def test_non_list_waves_rejected(self):
        record, waves = make_ecg_record(seed=3, n_leads=1)
        doc = record_to_json(record, waves)
        doc["leads"][0]["waves"] = 5
        with pytest.raises(JsonFormatError, match=r"leads\[0\]: waves must be a list"):
            record_from_json(doc)

    @pytest.mark.parametrize("key", ["onset", "peak", "offset"])
    @pytest.mark.parametrize("value", [1.7, 512.0, "512", True, None])
    def test_non_integer_sample_index_rejected(self, key, value):
        record, waves = make_ecg_record(seed=3, n_leads=1)
        doc = record_to_json(record, waves)
        doc["leads"][0]["waves"][1][key] = value
        with pytest.raises(JsonFormatError, match=rf"leads\[0\]\.waves\[1\]: {key} must be an integer"):
            record_from_json(doc)

    def test_non_utf8_file_names_it(self, tmp_path):
        path = tmp_path / "utf16.json"
        record, waves = make_ecg_record(seed=3, n_leads=1)
        path.write_text(json.dumps(record_to_json(record, waves)), encoding="utf-16")  # starts FF FE
        with pytest.raises(JsonFormatError, match="utf16.json: not valid JSON"):
            load_json_record(path)


class TestWfdbEndToEnd:
    def test_non_utf8_header_names_it(self, tmp_path):
        record, waves = make_ecg_record(record_id="78", seed=8, n_leads=1)
        header_path, _, ann_files = write_wfdb_fixture(tmp_path, record, waves)
        header_path.write_text(header_path.read_text(), encoding="utf-16")  # starts FF FE
        with pytest.raises(HeaderParseError, match="78.hea: not UTF-8 text"):
            read_wfdb_record(header_path, ann_files)

    def test_fixture_round_trip(self, tmp_path):
        record, waves = make_ecg_record(record_id="77", seed=7, n_leads=4)
        header_path, raw, ann_files = write_wfdb_fixture(tmp_path, record, waves)
        parsed, parsed_waves = read_wfdb_record(header_path, ann_files)
        assert parsed.record_id == "77"
        assert parsed.leads == record.leads
        # raw ADC values survive the mV conversion exactly after rounding back
        np.testing.assert_array_equal(np.round(parsed.signals * 1000.0).astype(np.int16), raw)
        for name in record.leads:
            assert [
                (w.wave_type, w.onset, w.peak, w.offset) for w in parsed_waves[name]
            ] == [(w.wave_type, w.onset, w.peak, w.offset) for w in waves[name]]

    def test_wfdb_to_json_equivalence(self, tmp_path):
        record, waves = make_ecg_record(record_id="9", seed=9, n_leads=2)
        header_path, _, ann_files = write_wfdb_fixture(tmp_path, record, waves)
        parsed, parsed_waves = read_wfdb_record(header_path, ann_files)
        doc = record_to_json(parsed, parsed_waves)
        back, back_waves = record_from_json(doc)
        np.testing.assert_array_equal(back.signals, parsed.signals)
        assert {
            name: [(w.wave_type, w.onset, w.peak, w.offset) for w in ws]
            for name, ws in back_waves.items()
        } == {
            name: [(w.wave_type, w.onset, w.peak, w.offset) for w in ws]
            for name, ws in parsed_waves.items()
        }
