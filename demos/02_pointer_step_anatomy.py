"""Anatomy of one decoder step: attention, copy distribution, gate, mixture.

The source sentence contains "zyxxy", a word no vocabulary knows. The final
distribution still assigns it probability, coming entirely from the copy
branch. The step runs on rows: here two hypotheses advance together, one
after BOS and one after the copied OOV word.

Run: python demos/02_pointer_step_anatomy.py
"""

import numpy as np

from paragen.model import ModelDims, ModelParams, prepare_source
from paragen.pointer import step_forward
from paragen.vocab import BOS, Vocabulary

vocab = Vocabulary(["the", "river", "flooded", "town"])
dims = ModelDims(vocab_size=vocab.size, d_emb=16, d_h=16, d_s=16, d_a=16)
params = ModelParams(dims, seed=7)

tokens = ["the", "zyxxy", "river", "flooded"]
ev, states, state, _ = prepare_source(tokens, params, vocab)
print("source tokens:", tokens)
print("extended ids: ", ev.source_ids, f"(fixed vocab ends at {vocab.size - 1})")
print("OOV extension:", ev.source_oovs)
print("attention features W_H·H + b, computed once:", states.features.shape)

oov_id = ev.lookup("zyxxy")
rows = np.repeat(state, 2, axis=0)  # two rows, each [hidden | cell]
out, _ = step_forward([BOS, oov_id], ev, states, rows, params)
print("\nrow 0 (after BOS) attention over source positions:", np.round(out.attn[0], 4),
      "sum =", out.attn[0].sum())

print("\np_gen (generate vs copy) per row:", np.round(out.p_gen, 4))
print("row 0 copy distribution mass per id:")
for idx in sorted(set(ev.source_ids)):
    print(f"  id {idx:2d} ({ev.token(idx):8s}): {out.p_copy[0, idx]:.4f}")

print("\nrow 0 final P over extended vocabulary sums to", out.p[0].sum())
print(f"P(zyxxy) = {out.p[0, oov_id]:.6f}")
print(f"        = (1 - p_gen) * P_copy(zyxxy) "
      f"= {(1 - out.p_gen[0]) * out.p_copy[0, oov_id]:.6f}")
print("the vocabulary branch contributes nothing: zyxxy has no fixed id")

forced, _ = step_forward([BOS], ev, states, state, params, force_p_gen=1.0)
print("\nwith the gate forced to pure generation, P(zyxxy) =",
      forced.p[0, oov_id], "(structurally zero)")
