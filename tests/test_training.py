import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paragen.autograd import Tensor, backward
from paragen.errors import NumericalError, ValidationError
from paragen.model import ModelDims, ModelParams
from paragen.training import (Adam, CheckpointError, CorruptCheckpointError, TrainConfig,
                              VersionMismatchError,
                              VocabMismatchError, WidthMismatchError, clip_gradients,
                              load_checkpoint, load_pairs_tsv, save_checkpoint,
                              save_pairs_tsv, sequence_loss, train)
from paragen.vocab import Vocabulary, tokenize

from conftest import copy_task_corpus, copy_task_vocab, tiny_model, zero_params
from oracles import PerTensorAdam, per_step_sequence_loss, straight_line_sequence_nll


def test_zero_weight_model_closed_form_loss():
    # disjoint source/target vocab: copy mass never lands on a gold token, so
    # every step has P(gold) = p_gen / V = 0.5 / V exactly
    vocab = Vocabulary(["aa", "bb", "cc", "dd", "ee"])
    dims = ModelDims(vocab_size=vocab.size, d_emb=4, d_h=4, d_s=4, d_a=4)
    params = zero_params(ModelParams(dims, seed=0))
    loss = sequence_loss(("aa bb cc", "dd ee"), params, vocab)
    expected = -math.log(0.5 / vocab.size)
    assert float(loss.data) == pytest.approx(expected, abs=1e-9)


def test_loss_positive_single_token_copy():
    params, vocab = tiny_model(seed=1)
    loss = sequence_loss(("alpha", "alpha"), params, vocab)
    assert np.isfinite(loss.data) and float(loss.data) > 0.0


def test_sequence_loss_matches_straight_line_oracle():
    params, vocab = tiny_model(seed=11)
    src = ["alpha", "zyxxy", "beta"]
    tgt = ["zyxxy", "alpha"]
    mine = float(sequence_loss((" ".join(src), " ".join(tgt)), params, vocab).data)
    oracle = straight_line_sequence_nll(params, vocab, src, tgt)
    assert mine == pytest.approx(oracle, abs=1e-12)


def test_sequence_loss_matches_per_step_oracle():
    """One output layer over the whole sequence against one per gold token:
    loss to 1e-12 relative, every gradient element to 1e-12 of its tensor's
    largest, greedy-match count and per-step gates exactly.

    The attention tensors are held to the model's largest gradient entry
    instead: their gradients pass through the attention softmax's, which sums
    to zero over positions, so they are sums of terms that nearly cancel, and
    the last-bit differences of the batched projection reach 5e-11 (bias) and
    6e-13 (weight) of their own largest entries."""
    from paragen.training import _teacher_forced

    cases = [("w01 name1x w02", "w02", 50),  # one target token: the shortest sequence
             ("w03 w04 w03 w04 w03", "w04 w03 w03 w05", 50),  # repeated source tokens
             ("w06 name2x w07 name3x", "name3x w07 name2x name2x", 50),  # OOV gold ids
             # truncated target, holding an OOV absent from the source (trains as UNK)
             ("w08 w09", "w09 w08 unseenx w10 w11 w12", 4)]
    v350 = Vocabulary([f"w{i:02d}" for i in range(50)] + [f"u{i:03d}" for i in range(296)])
    for vocab in (copy_task_vocab(), v350):
        assert vocab.size in (54, 350)
        for width in range(1, 17):
            params = ModelParams(ModelDims(vocab_size=vocab.size, d_emb=width, d_h=width,
                                           d_s=width, d_a=width), seed=width)
            for x, y, max_target_len in cases:
                params.zero_grad()
                loss, correct, _, p_gen = _teacher_forced((x, y), params, vocab, 50,
                                                          max_target_len)
                backward(loss)
                grads = [p.grad.copy() for _, p in params.named_parameters()]
                want_loss, want_correct, want_p_gen = per_step_sequence_loss(
                    params, vocab, tokenize(x), tokenize(y)[:max_target_len])
                assert abs(float(loss.data) - want_loss) <= 1e-12 * abs(want_loss)
                assert (correct, p_gen) == (want_correct, want_p_gen)
                for mine, (name, p) in zip(grads, params.named_parameters()):
                    scale = params.grad if name.startswith("attention.") else p.grad
                    assert np.abs(mine - p.grad).max() <= 1e-12 * np.abs(scale).max(), name


def test_sequence_loss_truncates_with_warning(caplog):
    params, vocab = tiny_model(seed=0)
    long_src = " ".join(["alpha"] * 60)
    with caplog.at_level("WARNING"):
        loss = sequence_loss((long_src, "alpha"), params, vocab)
    assert np.isfinite(loss.data)
    assert any("truncated" in r.message for r in caplog.records)


def test_empty_pair_rejected():
    params, vocab = tiny_model(seed=0)
    with pytest.raises(ValidationError):
        sequence_loss(("", "alpha"), params, vocab)


def test_clip_gradients_norm_and_direction():
    rng = np.random.default_rng(0)
    params = [(f"p{i}", Tensor(rng.normal(size=5), requires_grad=True)) for i in range(3)]
    for _, p in params:
        p.grad = rng.normal(size=5) * 10
    flat_before = np.concatenate([p.grad.copy() for _, p in params])
    pre_norm = clip_gradients(params, clip=2.0)
    flat_after = np.concatenate([p.grad for _, p in params])
    post_norm = float(np.linalg.norm(flat_after))
    assert pre_norm == pytest.approx(float(np.linalg.norm(flat_before)), rel=1e-12)
    assert post_norm <= 2.0 + 1e-9
    cosine = float(flat_before @ flat_after / (np.linalg.norm(flat_before) * post_norm))
    assert cosine == pytest.approx(1.0, abs=1e-12)


def test_clip_noop_when_below_threshold():
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.array([0.1, 0.0, 0.0])
    clip_gradients([("p", p)], clip=2.0)
    np.testing.assert_array_equal(p.grad, [0.1, 0.0, 0.0])


def test_adam_zero_lr_is_identity():
    params, vocab = tiny_model(seed=3)
    reference = {n: p.data.copy() for n, p in params.named_parameters()}
    opt = Adam(params.flat, params.grad, lr=0.0)
    loss = sequence_loss(("alpha beta", "beta alpha"), params, vocab)
    params.zero_grad()
    backward(loss)
    opt.step()
    for n, p in params.named_parameters():
        np.testing.assert_array_equal(p.data, reference[n])


def test_flat_adam_equals_per_tensor_adam_bit_for_bit():
    params, vocab = tiny_model(seed=3)
    reference = {n: p.data.copy() for n, p in params.named_parameters()}
    oracle = PerTensorAdam(reference, lr=1e-2)
    opt = Adam(params.flat, params.grad, lr=1e-2)
    pairs = [("alpha beta", "beta alpha"), ("gamma zyxxy", "zyxxy"), ("delta", "eta delta")]
    for step in range(5):
        params.zero_grad()
        backward(sequence_loss(pairs[step % len(pairs)], params, vocab))
        oracle.step({n: p.grad.copy() for n, p in params.named_parameters()})
        opt.step()
        for n, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, reference[n], err_msg=f"step {step} {n}")
    assert not np.array_equal(params.flat, tiny_model(seed=3)[0].flat)


def test_non_finite_gradient_raises_before_the_step(tmp_path, monkeypatch):
    built = []

    def keep(*args, **kwargs):
        built.append(ModelParams(*args, **kwargs))
        return built[-1]

    def nan_backward(loss):
        backward(loss)
        built[0].decoder.w_i.grad[0, 0] = np.nan

    monkeypatch.setattr("paragen.training.ModelParams", keep)
    monkeypatch.setattr("paragen.training.backward", nan_backward)
    cfg = TrainConfig(seed=5, epochs=1, vocab_size=30, d_emb=4, d_h=4, d_s=4, d_a=4)
    ckpt = tmp_path / "m.ckpt"
    with pytest.raises(NumericalError, match="gradient"):
        train([("alpha beta", "beta alpha")], cfg, checkpoint_path=ckpt)
    np.testing.assert_array_equal(built[0].flat, ModelParams(built[0].dims, seed=5).flat)
    assert not ckpt.exists()


def test_train_zero_lr_bit_identical(tmp_path):
    pairs = [("alpha beta", "beta alpha"), ("gamma delta", "delta gamma")]
    cfg = TrainConfig(seed=5, epochs=3, lr=0.0, vocab_size=30,
                      d_emb=4, d_h=4, d_s=4, d_a=4)
    params, _ = train(pairs, cfg)
    fresh = ModelParams(params.dims, seed=5)
    for (n, p), (_, q) in zip(params.named_parameters(), fresh.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=n)


def test_train_deterministic_checkpoints(tmp_path):
    pairs, _ = copy_task_corpus(12, seed=0)
    cfg = TrainConfig(seed=7, epochs=2, vocab_size=60, d_emb=8, d_h=8, d_s=8, d_a=8)
    vocab = copy_task_vocab()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    train(pairs, cfg, vocab=vocab, checkpoint_path=p1)
    train(pairs, cfg, vocab=vocab, checkpoint_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_nll_decreases_on_copy_task():
    pairs, _ = copy_task_corpus(60, seed=1)
    cfg = TrainConfig(seed=1, epochs=5, vocab_size=60, d_emb=16, d_h=16, d_s=16, d_a=16)
    _, report = train(pairs, cfg, vocab=copy_task_vocab())
    nlls = [e.mean_nll for e in report.epochs]
    assert all(b < a for a, b in zip(nlls, nlls[1:])), nlls
    assert report.epochs[-1].token_accuracy > report.epochs[0].token_accuracy


def test_train_empty_dataset_rejected():
    with pytest.raises(ValidationError):
        train([], TrainConfig(seed=0))


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(seed=None)
    with pytest.raises(ValidationError):
        TrainConfig(seed=0, epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(seed=0, clip=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(seed=0, lr=-1.0)
    TrainConfig(seed=0, lr=0.0)  # null update is allowed


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    loaded, fingerprint = load_checkpoint(path, expected_vocab=vocab)
    assert fingerprint == vocab.fingerprint()
    for (n, p), (_, q) in zip(params.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=n)
    assert loaded.dims == params.dims


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(0, 999), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     max_size=20))
def test_checkpoint_round_trips_flat_bit_for_bit(seed, specials):
    params, vocab = tiny_model(seed=seed, n_tokens=3, width=2)
    # any finite value survives: -0.0, subnormals, the extremes
    params.flat[:len(specials)] = specials
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(params, path, vocab)
        loaded, _ = load_checkpoint(path, expected_dims=params.dims, expected_vocab=vocab)
    assert loaded.flat.tobytes() == params.flat.tobytes()


def test_checkpoint_truncated_is_corrupt(tmp_path):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_parameter_count_matches_model():
    for dims in [ModelDims(vocab_size=9, d_emb=2, d_h=3, d_s=5, d_a=7),
                 ModelDims(vocab_size=60, d_emb=8, d_h=4, d_s=8, d_a=1)]:
        params = ModelParams(dims, seed=0)
        assert dims.parameter_count() == sum(p.data.size for _, p in params.named_parameters())


def test_init_checkpoint_bytes_golden(tmp_path):
    # pins the random draws of parameter_layout: their order, shapes and init values
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    params = ModelParams(ModelDims(vocab_size=vocab.size, d_emb=3, d_h=2, d_s=4, d_a=5),
                         seed=1234)
    save_checkpoint(params, tmp_path / "g.ckpt", vocab)
    assert hashlib.sha256((tmp_path / "g.ckpt").read_bytes()).hexdigest() == (
        "983c42c81deb0da563016c8de9089cad476061b33ddf2226c106ec96b6f401b6")


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded, _ = load_checkpoint(path)
    for (n, p), (_, q) in zip(params.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=n)
        assert q.data.flags.writeable and q.grad is not None, n


@pytest.mark.parametrize("field", range(5))
def test_checkpoint_corrupt_width_rejected_before_allocation(field, tmp_path, monkeypatch):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    blob = path.read_bytes()
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        raise AssertionError("ModelParams built from a corrupt header")

    monkeypatch.setattr("paragen.training.ModelParams", spy)
    monkeypatch.setattr("paragen.training.params_from_payload", spy)
    for byte in range(4):
        corrupt = bytearray(blob)
        corrupt[6 + 4 * field + byte] ^= 0xFF
        path.write_bytes(bytes(corrupt))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)
    assert built == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_non_finite_payload_is_corrupt(value, tmp_path):
    params, vocab = tiny_model(seed=9)
    params.flat[17] = value
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    with pytest.raises(CorruptCheckpointError, match="non-finite"):
        load_checkpoint(path)


def test_checkpoint_header_corruption_raises_only_checkpoint_errors(tmp_path):
    vocab = Vocabulary(["alpha"])
    params = ModelParams(ModelDims(vocab_size=vocab.size, d_emb=1, d_h=1, d_s=1, d_a=1), seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    blob = path.read_bytes()
    cases = [(f"truncated to {n}", blob[:n]) for n in range(len(blob))]
    for i in range(66):  # every header byte
        for value in (0x00, 0xFF, blob[i] ^ 0x01, blob[i] ^ 0x80):
            corrupt = bytearray(blob)
            corrupt[i] = value
            cases.append((f"byte {i} = {value:#04x}", bytes(corrupt)))
    escaped = []
    for label, case in cases:
        path.write_bytes(case)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the failure
            escaped.append((label, repr(exc)))
    assert escaped == []


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_checkpoint_width_mismatch_names_both(tmp_path):
    params, vocab = tiny_model(seed=9, width=8)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    want = ModelDims(vocab_size=vocab.size, d_emb=8, d_h=4, d_s=8, d_a=8)
    with pytest.raises(WidthMismatchError) as err:
        load_checkpoint(path, expected_dims=want)
    assert "8" in str(err.value) and "4" in str(err.value)


def test_checkpoint_vocab_fingerprint_mismatch(tmp_path):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    other = Vocabulary(["completely", "different"])
    with pytest.raises(VocabMismatchError):
        load_checkpoint(path, expected_vocab=other)


def test_pairs_tsv_round_trip(tmp_path):
    path = tmp_path / "pairs.tsv"
    pairs = [("a b", "c d"), ("x y", "z w")]
    save_pairs_tsv(pairs, path)
    assert load_pairs_tsv(path) == pairs


_LINE_TEXT = st.text(st.characters(exclude_characters="\t\n", exclude_categories=("Cs",)))


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(_LINE_TEXT, _LINE_TEXT), max_size=4))
def test_pairs_tsv_round_trips_any_text_without_tab_or_lf(pairs):
    # "\r", "\x85", "\u2028" and the other str.splitlines() breaks stay inside a line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        save_pairs_tsv(pairs, path)
        assert load_pairs_tsv(path) == pairs


def test_pairs_tsv_crlf_gives_the_same_tokens(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"a b\tc d\r\nx\ty z\r\n")
    assert [(tokenize(x), tokenize(y)) for x, y in load_pairs_tsv(path)] == [
        (["a", "b"], ["c", "d"]), (["x"], ["y", "z"])]


def test_pairs_tsv_rejects_bad_lines(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("good\tline\nbad line without tab\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_pairs_tsv(path)
    assert "line 2" in str(err.value)

    path.write_text("too\tmany\ttabs\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_pairs_tsv(path)
    assert "line 1" in str(err.value)


def test_train_writes_log_and_interval_checkpoints(tmp_path):
    import json

    pairs, _ = copy_task_corpus(6, seed=2)
    cfg = TrainConfig(seed=2, epochs=3, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4,
                      checkpoint_interval=2)
    ckpt = tmp_path / "m.ckpt"
    log = tmp_path / "m.log"
    log.write_text("a line from an earlier run\n", encoding="utf-8")
    train(pairs, cfg, vocab=copy_task_vocab(), checkpoint_path=ckpt, log_path=log)
    assert ckpt.exists()
    lines = log.read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert rec["epoch"] == i
        assert rec["mean_nll"] >= 0.0


def test_failed_run_keeps_previous_log(tmp_path, monkeypatch):
    pairs, _ = copy_task_corpus(4, seed=2)
    cfg = TrainConfig(seed=2, epochs=2, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4)
    log = tmp_path / "m.log"
    log.write_text('{"epoch": 1, "note": "an earlier run"}\n', encoding="utf-8")
    before = log.read_bytes()

    def fail(loss):
        raise NumericalError("backward failed")

    with monkeypatch.context() as m:
        m.setattr("paragen.training.backward", fail)
        with pytest.raises(NumericalError):
            train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
    assert log.read_bytes() == before

    train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
    assert [json.loads(line)["epoch"] for line in log.read_text().splitlines()] == [1, 2]
    assert [p.name for p in tmp_path.iterdir()] == ["m.log"]


def test_train_log_reports_gradient_and_gate_telemetry(tmp_path, monkeypatch):
    import paragen.training as training

    norms = []

    def recording_clip(named, clip):
        norms.append(clip_gradients(named, clip))
        return norms[-1]

    monkeypatch.setattr(training, "clip_gradients", recording_clip)
    pairs, _ = copy_task_corpus(8, seed=4)  # every target holds one source OOV
    cfg = TrainConfig(seed=4, epochs=2, clip=0.5, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4)
    log = tmp_path / "m.log"
    train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for rec, epoch_norms in zip(records, (norms[:8], norms[8:])):
        assert list(rec)[:4] == ["epoch", "mean_nll", "token_accuracy", "wall_time_s"]
        assert rec["grad_norm_mean"] == pytest.approx(np.mean(epoch_norms), rel=1e-12)
        assert rec["grad_norm_max"] == max(epoch_norms)
        assert 0.0 < rec["grad_norm_mean"] <= rec["grad_norm_max"]
        assert rec["clipped_fraction"] == sum(n > 0.5 for n in epoch_norms) / 8
        assert 0.0 <= rec["clipped_fraction"] <= 1.0
        for key in ("p_gen_oov_mean", "p_gen_in_vocab_mean"):
            assert 0.0 < rec[key] < 1.0

    in_vocab_only = [("w01 w02", "w02 w01"), ("w03", "w03 w04")]
    _, report = train(in_vocab_only, cfg, vocab=copy_task_vocab())
    assert report.epochs[-1].p_gen_oov_mean is None
    assert 0.0 < report.epochs[-1].p_gen_in_vocab_mean < 1.0


def test_train_log_reports_target_tokens_per_second(tmp_path):
    pairs, _ = copy_task_corpus(6, seed=5)
    cfg = TrainConfig(seed=5, epochs=2, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4)
    log = tmp_path / "m.log"
    train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
    gold_tokens = sum(len(tokenize(y)) + 1 for _, y in pairs)  # each target ends in EOS
    for rec in map(json.loads, log.read_text().splitlines()):
        assert list(rec)[3:5] == ["wall_time_s", "target_tokens_per_s"]
        assert rec["target_tokens_per_s"] > 0.0
        assert rec["target_tokens_per_s"] * rec["wall_time_s"] == pytest.approx(gold_tokens,
                                                                                 rel=1e-12)
