"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.
"""

import struct
import time

import numpy as np
import pytest

from ecgseg.autodiff import (
    BatchNormState,
    Tensor,
    batchnorm1d,
    batchnorm_relu,
    conv1d,
    convtranspose1d,
    convtranspose_concat,
    maxpool1d,
    relu,
    softmax_cross_entropy,
    zero_pad_concat,
)
from ecgseg.delineate import WavePrediction, delineate, extract_segments
from ecgseg.evaluate import (
    POINT_TYPES,
    EvaluatorConfig,
    ReferenceRecord,
    evaluate_dataset,
    match_points,
)
from ecgseg.signal import midpoint_grid, resample
from ecgseg.train import TrainConfig, make_split, train
from ecgseg.unet import SegmentationModel, tiny_config
from ecgseg.wfdb import (
    group_events,
    parse_annotations,
    read_wfdb_record,
    record_from_json,
    record_to_json,
    to_mask,
)
from gradcheck import assert_grad_matches, conv_after_released_bn_relu
from oracles import conv1d_naive, convtranspose1d_naive, optimal_matching
from synth import make_ecg_record, write_wfdb_fixture


def rt(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def test_criterion_1_gradient_suite_all_layers():
    """Every layer passes central finite differences, rel err < 1e-4, >= 5 shapes each."""
    start = time.monotonic()
    rng = np.random.default_rng(0)

    for _ in range(5):  # conv1d
        B, Cin, Cout = rng.integers(1, 3), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 10))
        L = int(rng.integers(k, k + 8))
        pad = int(rng.integers(0, 5))
        x, w, b = rt(rng, (B, Cin, L)), rt(rng, (Cout, Cin, k)), rt(rng, (Cout,))
        assert_grad_matches(lambda: conv1d(x, w, b, padding=pad), [x, w, b], rng)

    for _ in range(5):  # batchnorm1d, training mode, gradients for x, gamma, beta
        B, C, L = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 10))
        state = BatchNormState.create(C, "bn")
        state.gamma.data[:] = rng.normal(size=C)
        state.beta.data[:] = rng.normal(size=C)
        x = rt(rng, (B, C, L))
        assert_grad_matches(lambda: batchnorm1d(x, state), [x, state.gamma, state.beta], rng)

    for _ in range(5):  # batchnorm_relu, training mode, normalized values away from the kink
        B, C, L = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 10))
        state = BatchNormState.create(C, "bn")
        state.gamma.data[:] = rng.normal(size=C)
        state.beta.data[:] = rng.normal(size=C)
        x = rt(rng, (B, C, L))
        while np.abs(batchnorm1d(x, state).data).min() < 0.05:
            x.data[:] = rng.normal(size=x.shape)
        assert_grad_matches(lambda: batchnorm_relu(x, state), [x, state.gamma, state.beta], rng)

    for _ in range(5):  # relu, keeping data away from the kink
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(2, 12)))
        data = rng.normal(size=shape)
        data[np.abs(data) < 1e-3] = 0.25
        x = Tensor(data, requires_grad=True)
        assert_grad_matches(lambda: relu(x), [x], rng)

    for _ in range(5):  # maxpool1d with well-separated values
        B, C, L = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(4, 14))
        data = rng.permutation(np.arange(B * C * L, dtype=np.float64)).reshape(B, C, L)
        x = Tensor(data, requires_grad=True)
        assert_grad_matches(lambda: maxpool1d(x)[0], [x], rng)

    count = 0  # convtranspose1d over varied stride/padding
    while count < 5:
        Cin, Cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(2, 9))
        stride = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
        L = int(rng.integers(2, 10))
        if (L - 1) * stride - 2 * pad + k < 1:
            continue
        x, w, b = rt(rng, (1, Cin, L)), rt(rng, (Cin, Cout, k)), rt(rng, (Cout,))
        assert_grad_matches(
            lambda: convtranspose1d(x, w, b, stride=stride, padding=pad), [x, w, b], rng
        )
        count += 1

    for _ in range(5):  # zero_pad_concat, gradient confined to the unpadded region
        B, Cu, Cs = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        Ls = int(rng.integers(2, 12))
        Lu = int(rng.integers(1, Ls + 1))
        up, skip = rt(rng, (B, Cu, Lu)), rt(rng, (B, Cs, Ls))
        assert_grad_matches(lambda: zero_pad_concat(up, skip), [up, skip], rng)

    count = 0  # convtranspose_concat, the skip as long as the output or longer
    while count < 5:
        B, Cin, Cout, Cs = (int(v) for v in rng.integers(1, 4, size=4))
        k = int(rng.integers(2, 9))
        stride = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
        L = int(rng.integers(2, 8))
        Lout = (L - 1) * stride - 2 * pad + k
        if Lout < 1:
            continue
        x, w, b = rt(rng, (B, Cin, L)), rt(rng, (Cin, Cout, k)), rt(rng, (Cout,))
        skip = rt(rng, (B, Cs, Lout + int(rng.integers(0, 3))))
        assert_grad_matches(
            lambda: convtranspose_concat(x, w, b, skip, stride=stride, padding=pad), [x, w, b, skip], rng
        )
        count += 1

    for _ in range(5):  # softmax cross-entropy loss
        B, L = int(rng.integers(1, 3)), int(rng.integers(2, 12))
        logits = rt(rng, (B, 4, L))
        targets = rng.integers(0, 4, size=(B, L))
        assert_grad_matches(lambda: softmax_cross_entropy(logits, targets), [logits], rng)

    for _ in range(5):  # conv1d after a released batchnorm_relu, training mode, away from the kink
        B, C, Cout = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 10))
        L = int(rng.integers(max(k, 3), k + 8))  # n >= 3, so redrawing x moves the normalized values
        pad = int(rng.integers(0, 5))
        state = BatchNormState.create(C, "bn")
        state.gamma.data[:] = rng.normal(size=C)
        state.beta.data[:] = rng.normal(size=C)
        x, w, b = rt(rng, (B, C, L)), rt(rng, (Cout, C, k)), rt(rng, (Cout,))
        while np.abs(batchnorm1d(x, state).data).min() < 0.05:
            x.data[:] = rng.normal(size=x.shape)
        assert_grad_matches(lambda: conv_after_released_bn_relu(x, state, w, b, padding=pad),
                            [x, w, b, state.gamma, state.beta], rng)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s, budget is 120s"
    print(f"criterion 1 PASS: 50 gradient checks in {elapsed:.1f}s")


@pytest.mark.parametrize("length", [1, 15, 16, 17, 496, 2000, 4000, 5000, 5001])
def test_criterion_2_output_shape_contract(length):
    """Forward output is exactly (4, l) for the boundary length set."""
    model = SegmentationModel(tiny_config(seed=1)).eval()
    out = model.scores(np.random.default_rng(length).normal(size=length))
    assert out.shape == (4, length)


def test_criterion_3_conv_oracle_equivalence():
    """conv1d and convtranspose1d match quadruple-loop oracles within 1e-10 on 100 instances each."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        B = int(rng.integers(1, 3))
        Cin, Cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 10))
        L = int(rng.integers(k, 17))
        pad = int(rng.integers(0, 5))
        x = rng.normal(size=(B, Cin, L))
        w = rng.normal(size=(Cout, Cin, k))
        b = rng.normal(size=Cout)
        got = conv1d(Tensor(x), Tensor(w), Tensor(b), padding=pad).data
        np.testing.assert_allclose(got, conv1d_naive(x, w, b, pad), atol=1e-10)

    done = 0
    while done < 100:
        B = int(rng.integers(1, 3))
        Cin, Cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(2, 9))
        stride = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
        L = int(rng.integers(2, 17))
        if (L - 1) * stride - 2 * pad + k < 1:
            continue
        x = rng.normal(size=(B, Cin, L))
        w = rng.normal(size=(Cin, Cout, k))
        b = rng.normal(size=Cout)
        got = convtranspose1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad).data
        np.testing.assert_allclose(
            got, convtranspose1d_naive(x, w, b, k, stride, pad), atol=1e-10
        )
        done += 1
    print("criterion 3a PASS: 100 conv + 100 convtranspose oracle matches")


def test_criterion_3_matcher_equals_bruteforce():
    """Greedy matching equals exhaustive optimal matching on 1000 separated instances."""
    rng = np.random.default_rng(3)
    tolerance = 10.0
    for _ in range(1000):
        base = np.cumsum(rng.uniform(45.0, 130.0, size=int(rng.integers(0, 6))))
        ref = [float(b + rng.uniform(-8, 8)) for b in base if rng.random() < 0.8]
        pred = [float(b + rng.uniform(-8, 8)) for b in base if rng.random() < 0.8]
        # spacing within each list stays > 2 * tolerance by construction
        for points in (ref, pred):
            assert all(b - a > 2 * tolerance for a, b in zip(points, points[1:]))
        result = match_points(ref, pred, tolerance)
        opt_count, opt_total = optimal_matching(ref, pred, tolerance)
        assert result.tp == opt_count
        assert sum(abs(d) for d in result.deviations) == pytest.approx(opt_total)
    print("criterion 3b PASS: greedy = optimal on 1000 instances")


def test_criterion_4_spline_properties():
    """Identity resample 1e-12; linear reproduction 1e-9; 50->500 Hz gives 10x samples."""
    rng = np.random.default_rng(4)
    record, _ = make_ecg_record(seed=4, n_leads=2)
    identity = resample(record, 500.0)
    np.testing.assert_allclose(identity.signals, record.signals, atol=1e-12)

    source_times, target_times = midpoint_grid(120, 3.0), midpoint_grid(510, 3.0)
    linear_record, _ = make_ecg_record(seed=5, n_leads=1)
    from ecgseg.signal import EcgRecord

    line = EcgRecord("line", ["ii"], (3.5 * source_times - 1.25)[None, :], 40.0)
    up = resample(line, 170.0)
    np.testing.assert_allclose(up.signals[0], 3.5 * target_times - 1.25, atol=1e-9)

    low = resample(record, 50.0)
    assert low.n_samples == 500
    back = resample(low, 500.0)
    assert back.n_samples == 10 * low.n_samples
    print("criterion 4 PASS: identity, linearity, 10x sample count")


def test_criterion_5_parser_round_trips(tmp_path):
    """WFDB -> JSON -> internal equivalence; hand-encoded triples; mask round trip."""
    record, waves = make_ecg_record(record_id="5", seed=6, n_leads=12)
    header_path, raw, ann_files = write_wfdb_fixture(tmp_path, record, waves)
    parsed, parsed_waves = read_wfdb_record(header_path, ann_files)
    reread, reread_waves = record_from_json(record_to_json(parsed, parsed_waves))
    np.testing.assert_array_equal(reread.signals, parsed.signals)
    assert reread.leads == parsed.leads
    assert reread.sampling_rate == parsed.sampling_rate
    np.testing.assert_array_equal(np.round(reread.signals * 1000.0).astype(np.int16), raw)
    for lead in parsed.leads:
        assert [
            (w.wave_type, w.onset, w.peak, w.offset) for w in reread_waves[lead]
        ] == [(w.wave_type, w.onset, w.peak, w.offset) for w in parsed_waves[lead]]

    # hand-encoded '(' N ')' triple at deltas 100/10/20
    words = struct.pack(
        "<4H", (39 << 10) | 100, (1 << 10) | 10, (40 << 10) | 20, 0
    )
    grouped = group_events(parse_annotations(words))
    assert [(w.wave_type, w.onset, w.peak, w.offset) for w in grouped] == [
        ("QRS", 100, 110, 130)
    ]

    # mask <-> segments round trip on a full annotated lead
    lead_waves = parsed_waves[parsed.leads[1]]
    mask = to_mask(lead_waves, parsed.n_samples)
    segments = extract_segments(mask)
    assert [(s.wave_type, s.onset, s.offset) for s in segments] == [
        (w.wave_type, w.onset, w.offset) for w in lead_waves
    ]
    np.testing.assert_array_equal(
        to_mask(
            [type(lead_waves[0])(s.wave_type, s.onset, s.onset, s.offset) for s in segments],
            parsed.n_samples,
        ),
        mask,
    )
    print("criterion 5 PASS: WFDB/JSON/mask round trips exact")


def test_criterion_6_overfit_drill():
    """Tiny config, 2 records, <= 500 iterations, <= 10 min: QRS F1 >= 0.99 and 10x loss drop."""
    start = time.monotonic()
    records = [
        make_ecg_record(record_id=f"drill{i}", seed=100 + i, n_leads=12) for i in range(2)
    ]
    split = make_split(records, ["drill0", "drill1"], [])
    model = SegmentationModel(tiny_config(seed=0))
    config = TrainConfig(iterations=400, batch_size=8, learning_rate=3e-3, seed=0)
    history = train(model, split, config)
    assert len(history) <= 500

    refs = [ReferenceRecord(r.record_id, r.sampling_rate, w) for r, w in records]
    preds = [delineate(r, model, "avg") for r, _ in records]
    report = evaluate_dataset(refs, preds, EvaluatorConfig(tolerance_ms=150.0))
    elapsed = time.monotonic() - start

    loss_drop = history[0] / history[-1]
    f1_on = report.per_point["QRS-on"].f1
    f1_off = report.per_point["QRS-off"].f1
    assert elapsed < 600.0, f"drill took {elapsed:.0f}s, budget is 600s"
    assert loss_drop >= 10.0, f"loss only dropped {loss_drop:.1f}x"
    assert f1_on is not None and f1_on >= 0.99, f"QRS-on F1 {f1_on}"
    assert f1_off is not None and f1_off >= 0.99, f"QRS-off F1 {f1_off}"
    assert history[-1] < 0.12  # measured 0.080 on the reference run
    print(
        f"criterion 6 PASS: {elapsed:.0f}s, loss {history[0]:.3f}->{history[-1]:.3f} "
        f"({loss_drop:.1f}x), QRS-on F1 {f1_on:.4f}, QRS-off F1 {f1_off:.4f}"
    )


def test_criterion_7_self_evaluation_perfect():
    """Reference vs itself: Se = PPV = F1 = 100.00%, m = 0, sigma = 0, all six types."""
    refs, preds = [], []
    from ecgseg.delineate import DelineationResult

    for i in range(4):
        record, waves = make_ecg_record(record_id=f"sc{i}", seed=200 + i, n_leads=12)
        refs.append(ReferenceRecord(record.record_id, record.sampling_rate, waves))
        streams = {
            lead: [WavePrediction(w.wave_type, w.onset, w.offset) for w in ws]
            for lead, ws in waves.items()
        }
        preds.append(
            DelineationResult(record.record_id, "per-lead", record.sampling_rate, streams)
        )
    report = evaluate_dataset(refs, preds, EvaluatorConfig(tolerance_ms=150.0))
    for pt in POINT_TYPES:
        m = report.per_point[pt]
        assert m.se == 1.0, f"{pt}: Se {m.se}"
        assert m.ppv == 1.0, f"{pt}: PPV {m.ppv}"
        assert m.f1 == 1.0, f"{pt}: F1 {m.f1}"
        assert m.mean_ms == 0.0 and m.sigma_ms == 0.0
    print("criterion 7 PASS: self-evaluation perfect on all six point types")


def test_criterion_8_full_replication_documented():
    """Stretch goal, explicitly not gated: full LUDB replication runs via scripts/."""
    pytest.skip(
        "criterion 8 is a replication report, not a gating test: it needs the public "
        "LUDB download and hours of CPU. Run scripts/replicate_table.py --wfdb-dir "
        "<ludb> (see README, 'Full replication') to produce the Table-shaped report; "
        "targets: QRS-on/off F1 >= 99.0%, P-on/off F1 >= 94%, T-on/off F1 >= 96%."
    )
