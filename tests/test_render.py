from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from ecgseg.delineate import DelineationError, DelineationResult, WavePrediction
from ecgseg.render import render_svg
from ecgseg.signal import EcgRecord
from synth import make_ecg_record

GOLDEN = Path(__file__).parent / "data" / "golden_render.svg"


def golden_inputs():
    t = np.arange(24)
    signals = np.vstack([np.sin(t / 3.0), 0.5 * np.cos(t / 4.0)]).round(3)
    record = EcgRecord("golden", ["i", "ii"], signals, 24.0)
    delin = DelineationResult(
        "golden", "per-lead", 24.0,
        {
            "i": [
                WavePrediction("P", 2, 5),
                WavePrediction("QRS", 8, 11),
                WavePrediction("T", 14, 19),
            ],
            "ii": [WavePrediction("QRS", 9, 12)],
        },
    )
    return record, delin


def test_golden_svg():
    record, delin = golden_inputs()
    assert render_svg(record, delin) == GOLDEN.read_text()


def test_deterministic_output():
    record, delin = golden_inputs()
    assert render_svg(record, delin) == render_svg(record, delin)


@pytest.mark.parametrize("record_id, rate, message", [
    ("other", 24.0, "record 'other' at 24 Hz does not belong to record 'golden' at 24 Hz"),
    ("golden", 12.0, "record 'golden' at 12 Hz does not belong to record 'golden' at 24 Hz"),
])
def test_delineation_of_another_record_rejected(record_id, rate, message):
    record, delin = golden_inputs()
    other = DelineationResult(record_id, delin.mode, rate, delin.streams)
    with pytest.raises(DelineationError, match=message):
        render_svg(record, other)


def test_empty_delineation_plain_trace():
    record, _ = golden_inputs()
    svg = render_svg(record, None)
    assert svg.count("<polyline") == 2
    assert "<rect x=" not in svg  # only the background rect remains
    assert 'fill-opacity' not in svg


def test_twelve_lead_record_stacks_panels():
    record, _ = make_ecg_record(seed=1, n_leads=12, duration=2.0)
    svg = render_svg(record, None)
    assert svg.count("<g id=") == 12
    for lead in record.leads:
        assert f'<g id="lead-{lead}">' in svg


def test_any_lead_name_gives_well_formed_svg():
    # JSON and WFDB headers may name a lead with XML's special characters
    record, _ = golden_inputs()
    name = 'V1 <&> "x"'
    record = EcgRecord(record.record_id, [name, "ii"], record.signals, record.sampling_rate)
    doc = minidom.parseString(render_svg(record, None))
    groups = doc.getElementsByTagName("g")
    assert [g.getAttribute("id") for g in groups] == [f"lead-{name}", "lead-ii"]
    assert [t.firstChild.data for t in doc.getElementsByTagName("text")] == [name, "ii"]


def test_wave_colors():
    record, delin = golden_inputs()
    svg = render_svg(record, delin)
    assert '#f4d35e' in svg  # P yellow
    assert '#e05c5c' in svg  # QRS red
    assert '#66b36b' in svg  # T green


def test_averaged_stream_drawn_on_every_panel():
    record, _ = golden_inputs()
    delin = DelineationResult(
        "golden", "avg", 24.0, {"avg": [WavePrediction("QRS", 8, 11)]}
    )
    svg = render_svg(record, delin)
    assert svg.count('#e05c5c') == 2
