"""Beam search over the extended vocabulary, score replay, and BLEU.

Run: python demos/05_beam_search_and_bleu.py   (about half a minute)
"""

import numpy as np

from paragen.decoding import BeamConfig, beam_decode, greedy_decode, score_sequence
from paragen.metrics import bleu
from paragen.training import TrainConfig, train
from paragen.vocab import build_vocab, tokenize

rng = np.random.default_rng(3)
base = [f"w{i:02d}" for i in range(30)]
pairs = []
for i in range(200):
    length = int(rng.integers(3, 7))
    tokens = [base[int(j)] for j in rng.integers(0, 30, size=length)]
    tokens[int(rng.integers(0, length))] = f"entity{i:03d}"
    pairs.append((" ".join(tokens), " ".join(tokens)))

vocab = build_vocab([[w] for w in base], max_size=34)
params, _ = train(pairs, TrainConfig(seed=2, epochs=5, lr=8e-3, vocab_size=34,
                                     d_emb=24, d_h=24, d_s=24, d_a=24), vocab=vocab)

source = pairs[0][0]
print("source:", source)

print("\ngreedy:", " ".join(greedy_decode(source, params, vocab, max_len=10)))

print("\nbeam width 4, ranked by log-prob / len^0.7:")
hyps = beam_decode(source, params, vocab, BeamConfig(beam_width=4, max_len=10))
for rank, hyp in enumerate(hyps[:4], start=1):
    replayed = score_sequence(source, hyp.ids, params, vocab)
    print(f"  #{rank} score {hyp.log_prob:9.4f} (replay {replayed:9.4f})  "
          f"{' '.join(hyp.surface)}")

print("\nwidth 1 reproduces greedy exactly:",
      beam_decode(source, params, vocab, BeamConfig(beam_width=1, max_len=10))[0].surface
      == greedy_decode(source, params, vocab, max_len=10))

print("\ncorpus BLEU of greedy decodes against the references:")
hyp_corpus = [greedy_decode(x, params, vocab, max_len=10) for x, _ in pairs[:40]]
ref_corpus = [tokenize(y) for _, y in pairs[:40]]
report = bleu(hyp_corpus, ref_corpus)
print(f"  bleu {report.bleu:.4f}, precisions "
      f"{[round(p, 3) for p in report.precisions]}, bp {report.brevity_penalty:.3f}")
