import numpy as np
import pytest

from paragen.autograd import Tensor
from paragen.errors import ValidationError
from paragen.model import DecoderState
from paragen.pointer import copy_distribution, full_step, generation_gate, mix
from paragen.vocab import BOS, encode_source

from conftest import model_part, tiny_model
from oracles import model_arrays, sigmoid_scalar, straight_line_step


def test_copy_distribution_accumulates_repeats():
    a = Tensor([0.2, 0.3, 0.5])
    p = copy_distribution(a, [4, 7, 4], 9)
    assert p.data[4] == pytest.approx(0.7, abs=1e-15)
    assert p.data[7] == pytest.approx(0.3, abs=1e-15)
    off_source = [i for i in range(9) if i not in (4, 7)]
    assert np.all(p.data[off_source] == 0.0)


def test_copy_distribution_distinct_ids_scatter():
    a = Tensor([0.1, 0.2, 0.7])
    p = copy_distribution(a, [2, 0, 5], 6)
    assert p.data[2] == 0.1 and p.data[0] == 0.2 and p.data[5] == 0.7


def test_copy_distribution_conserves_mass():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        raw = rng.uniform(0.1, 1.0, size=n)
        a = raw / raw.sum()
        ids = rng.integers(0, 12, size=n)
        p = copy_distribution(Tensor(a), ids, 12)
        assert abs(p.data.sum() - a.sum()) <= 1e-15


def test_copy_distribution_range_check():
    with pytest.raises(ValidationError):
        copy_distribution(Tensor([1.0]), [7], 6)


def test_generation_gate_zero_is_half():
    gp = model_part("copy_gate", d_emb=2, d_s=3, d_h=2)
    gp.weight.data[...] = 0.0
    gp.bias.data[...] = 0.0
    state = DecoderState(Tensor(np.ones(3)), Tensor(np.ones(3)))
    g = generation_gate(Tensor(np.ones(2)), state, Tensor(np.ones(4)), gp)
    assert g.item() == 0.5


def test_generation_gate_saturation_finite():
    gp = model_part("copy_gate", d_emb=2, d_s=3, d_h=2)
    gp.weight.data[...] = 0.0
    gp.bias.data[...] = 40.0
    state = DecoderState(Tensor(np.zeros(3)), Tensor(np.zeros(3)))
    g = generation_gate(Tensor(np.zeros(2)), state, Tensor(np.zeros(4)), gp)
    assert np.isfinite(g.item())
    assert abs(g.item() - 1.0) < 1e-12


def test_generation_gate_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    gp = model_part("copy_gate", seed=1, d_emb=2, d_s=3, d_h=2)
    w = rng.normal(size=2)
    state = DecoderState(Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3)))
    ctx = rng.normal(size=4)
    g = generation_gate(Tensor(w), state, Tensor(ctx), gp)
    z = np.concatenate([w, state.hidden.data, ctx])
    expect = sigmoid_scalar(float(np.dot(gp.weight.data, z) + gp.bias.data))
    assert g.item() == pytest.approx(expect, abs=1e-14)


def test_mix_degenerate_gates():
    rng = np.random.default_rng(2)
    pv_raw = rng.uniform(0.1, 1.0, size=4)
    pc_raw = rng.uniform(0.1, 1.0, size=6)
    pv = Tensor(pv_raw / pv_raw.sum())
    pc = Tensor(pc_raw / pc_raw.sum())
    pure_copy = mix(pv, pc, 0.0)
    np.testing.assert_allclose(pure_copy.data, pc.data, atol=1e-12)
    pure_vocab = mix(pv, pc, 1.0)
    np.testing.assert_allclose(pure_vocab.data[:4], pv.data, atol=1e-12)
    assert np.all(pure_vocab.data[4:] == 0.0)


def test_mix_hand_value():
    # p_gen 0.6, vocab prob 0.5, copy prob 0.25 -> 0.6*0.5 + 0.4*0.25 = 0.4
    pv = Tensor([0.5, 0.5])
    pc = Tensor([0.25, 0.25, 0.5])
    out = mix(pv, pc, 0.6)
    assert out.data[0] == pytest.approx(0.4, abs=1e-15)
    assert abs(out.data.sum() - 1.0) <= 1e-9


def test_mix_rejects_bad_gate():
    pv = Tensor([1.0])
    pc = Tensor([1.0])
    with pytest.raises(ValidationError):
        mix(pv, pc, 1.5)
    with pytest.raises(ValidationError):
        mix(pv, pc, -0.1)


def _step_setup(seed, source=("alpha", "zyxxy", "beta", "zyxxy")):
    params, vocab = tiny_model(seed=seed)
    src_ids, ev = encode_source(list(source), vocab)
    states = params.encode_source_ids(src_ids)
    state = params.initial_decoder_state(states)
    return params, vocab, ev, states, state


def test_full_step_deterministic():
    dists = []
    for _ in range(2):  # rebuild everything from scratch with the same seed
        params, vocab, ev, states, state = _step_setup(4)
        dist, _ = full_step(BOS, ev, states, state, params)
        dists.append(dist)
    d1, d2 = dists
    np.testing.assert_array_equal(d1.p.data, d2.p.data)
    np.testing.assert_array_equal(d1.p_vocab.data, d2.p_vocab.data)
    assert d1.p_gen.item() == d2.p_gen.item()


def test_full_step_distribution_laws():
    for seed in range(25):
        params, vocab, ev, states, state = _step_setup(seed)
        dist, _ = full_step(BOS, ev, states, state, params)
        assert abs(dist.p.data.sum() - 1.0) <= 1e-9
        assert abs(dist.p_copy.data.sum() - 1.0) <= 1e-9
        assert abs(dist.p_vocab.data.sum() - 1.0) <= 1e-12
        assert 0.0 < dist.p_gen.item() < 1.0


def test_full_step_oov_probability_is_pure_copy():
    params, vocab, ev, states, state = _step_setup(6)
    dist, _ = full_step(BOS, ev, states, state, params)
    oov_id = ev.lookup("zyxxy")
    expect = (1.0 - dist.p_gen.item()) * dist.p_copy.data[oov_id]
    assert dist.p.data[oov_id] == pytest.approx(expect, rel=1e-12)
    assert dist.p.data[oov_id] > 0.0  # attention gives every position mass


def test_full_step_in_vocab_and_in_source_strictly_positive():
    params, vocab, ev, states, state = _step_setup(7, source=("alpha", "beta", "alpha"))
    dist, _ = full_step(BOS, ev, states, state, params)
    for tok in ("alpha", "beta"):
        assert dist.p.data[vocab.lookup(tok)] > 0.0
    # off-source extended region is empty here; vocabulary entries all positive
    assert np.all(dist.p.data[:vocab.size] > 0.0)


def test_full_step_force_p_gen_one_kills_extended_ids():
    params, vocab, ev, states, state = _step_setup(8)
    dist, _ = full_step(BOS, ev, states, state, params, force_p_gen=1.0)
    assert np.all(dist.p.data[vocab.size:] == 0.0)
    assert abs(dist.p.data.sum() - 1.0) <= 1e-9


def test_full_step_matches_straight_line_oracle():
    params, vocab, ev, states, state = _step_setup(9)
    dist, new_state = full_step(BOS, ev, states, state, params)
    w = model_arrays(params)
    out = straight_line_step(w, states.H.data.copy(), ev.source_ids, ev.size,
                             w["embedding"][BOS], state.hidden.data.copy(),
                             state.cell.data.copy())
    np.testing.assert_allclose(dist.p.data, out["p"], atol=1e-12, rtol=0)
    np.testing.assert_allclose(new_state.hidden.data, out["h"], atol=1e-12, rtol=0)
    assert dist.p_gen.item() == pytest.approx(out["p_gen"], abs=1e-13)


def test_full_step_prev_extended_id_uses_unk_embedding():
    params, vocab, ev, states, state = _step_setup(10)
    oov_id = ev.lookup("zyxxy")
    from paragen.vocab import UNK
    d_oov, _ = full_step(oov_id, ev, states, state, params)
    d_unk, _ = full_step(UNK, ev, states, state, params)
    np.testing.assert_array_equal(d_oov.p.data, d_unk.p.data)
