"""Copy distribution, generation gate, and the mixed output distribution.

At each decoder step the model blends the fixed-vocabulary distribution with
a copy distribution scattered from the attention weights onto source token
ids. The gate is a single sigmoid scalar, so neither branch is ever switched
off entirely; a word can only have zero final probability when both branches
assign it zero.
"""

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ValidationError
from .model import attend, decoder_step, project_vocab
from .vocab import encode_source


def copy_distribution(attn_weights, source_ids, extended_size):
    """Scatter attention mass onto extended ids; repeats accumulate.

    Entries for ids absent from the source stay exactly zero, and the total
    mass equals the attention total (1 for softmaxed weights).
    """
    ids = np.asarray(source_ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= extended_size):
        raise ValidationError(
            f"copy_distribution: source id out of range [0, {extended_size})")
    return ag.scatter_add(attn_weights, ids, extended_size)


def generation_gate(prev_emb, state, context, gp):
    """Sigmoid gate weighting generation against copying; strictly inside (0,1)."""
    z = ag.concat(ag.concat(prev_emb, state.hidden), context)
    return ag.sigmoid(ag.add(ag.matmul(gp.weight, z), gp.bias))


def mix(p_vocab, p_copy, p_gen):
    """Convex combination of the two branches over the extended vocabulary.

    The vocabulary branch is zero-padded onto the extended ids, so extended
    words draw probability only from the copy branch.
    """
    if not isinstance(p_gen, Tensor):
        p_gen = Tensor(float(p_gen))
    value = float(p_gen.data)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"mix: p_gen {value} outside [0, 1]")
    size = p_copy.data.shape[0]
    padded = ag.pad_to(p_vocab, size)
    one_minus = ag.add(ag.neg(p_gen), Tensor(1.0))
    return ag.add(ag.mul(padded, p_gen), ag.mul(p_copy, one_minus))


@dataclass
class StepDistribution:
    """Everything one decoder time step produced."""

    p_vocab: Tensor
    p_copy: Tensor
    p_gen: Tensor
    p: Tensor


def prepare_source(tokens, params, vocab):
    """Everything a decoder needs before its first step for source ``tokens``:
    returns (ExtendedVocab, EncoderStates, initial DecoderState)."""
    src_ids, ev = encode_source(tokens, vocab)
    states = params.encode_source_ids(src_ids)
    return ev, states, params.initial_decoder_state(states)


def full_step(prev_id, ev, states, state, params, force_p_gen=None):
    """One decoder time step: attend, update state, project, gate, mix.

    prev_id is an extended id (an id past the fixed range embeds as UNK).
    force_p_gen overrides the learned gate at inference time, for ablations;
    it never applies during training.
    Returns (StepDistribution, new DecoderState).
    """
    prev_emb = params.embed(prev_id)
    _, a, context = attend(states, state, params.attention)
    new_state = decoder_step(prev_emb, context, state, params.decoder)
    p_vocab = project_vocab(new_state, context, params.projection)
    p_copy = copy_distribution(a, ev.source_ids, ev.size)
    if force_p_gen is None:
        p_gen = generation_gate(prev_emb, new_state, context, params.copy_gate)
    else:
        p_gen = Tensor(float(force_p_gen))
    p = mix(p_vocab, p_copy, p_gen)
    return StepDistribution(p_vocab=p_vocab, p_copy=p_copy, p_gen=p_gen, p=p), new_state
