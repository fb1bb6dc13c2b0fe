import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from paragen import ModelDims, ModelParams, Vocabulary
from paragen.autograd import Tensor
from paragen.miner import Document


TINY_TOKENS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def tiny_model(seed=0, n_tokens=8, width=8):
    """V_fixed = n_tokens + 4 reserved; all widths equal."""
    vocab = Vocabulary(TINY_TOKENS[:n_tokens])
    dims = ModelDims(vocab_size=vocab.size, d_emb=width, d_h=width,
                     d_s=width, d_a=width)
    return ModelParams(dims, seed=seed), vocab


def leaf(data):
    """A float64 tensor with a zeroed gradient, for a test loss to read and grad_check to probe."""
    data = np.array(data, dtype=np.float64)
    return Tensor(data, np.zeros_like(data))


def model_part(name, seed=0, vocab_size=6, d_emb=2, d_h=2, d_s=2, d_a=2):
    """One parameter group (or bare tensor) of a small model with these widths."""
    dims = ModelDims(vocab_size=vocab_size, d_emb=d_emb, d_h=d_h, d_s=d_s, d_a=d_a)
    return getattr(ModelParams(dims, seed=seed), name)


def hand_states(params, H, h_final):
    """EncoderStates of one source over encoder states H (N x 2*d_h) built
    by hand, with what ``prepare_source`` derives from them
    (``source_states``): the attention features W_H·H + b and the decoder's
    stacked gates, from the current weights."""
    from paragen.model import source_states

    return source_states(params, H[None], np.ones((1, len(H)), dtype=bool), h_final[None])


def gold_step_backward(params, ev, states, out, caches, gold, g_gold, g_state):
    """The backward of one B-row ``step_forward`` (its outputs and caches)
    for d p zero but at each row's ``gold`` id, where it is ``g_gold``, and
    for d next state: the gold-only output_backward, its d copy scattered to
    the source positions holding each gold id, then recur_backward and
    recur_grads. Returns (d incoming state, d H)."""
    from paragen.pointer import output_backward, recur_backward, recur_grads

    recur_cache, out_cache = caches
    gold = np.asarray(gold)
    g_emb, g_hidden, g_context, g_copy = output_backward(
        out_cache, gold, g_gold, out.p_copy[np.arange(len(gold)), gold])
    g_attn = np.where(np.equal.outer(gold, ev.source_ids), g_copy[:, None], 0.0)
    g_state, pieces = recur_backward(recur_cache, g_emb, g_hidden, g_context, g_attn, g_state)
    return g_state, recur_grads(params, states, [pieces])


def step_loss_node(params, ev, states, rows, prev_ids, rng):
    """A loss for grad_check over one B-row decoder step: a random weighting
    of each row's NLL at a gold id drawn from the source (so the copy half
    gets a gradient) plus a random weighting of every next state, whose
    backward closure runs ``gold_step_backward``. Each NLL is -log(p / p0),
    p0 its probability at the evaluation point: the same gradient as -log p,
    with a value near zero, so the probes' rounding of the loss stays as
    small as the state term's.

    Returns (f, named): f rebuilds the loss from the live arrays (the
    attention features and the decoder's stacked gates included), and named
    holds the step's input state rows and encoder states H as ``leaf``
    tensors.
    """
    import paragen.autograd as ag
    from paragen.pointer import step_forward

    S = leaf(rows)
    H = leaf(states.H[0])
    gold = rng.choice(ev.source_ids, size=len(prev_ids))
    wp = rng.normal(size=len(prev_ids))
    ws = rng.normal(size=rows.shape)
    p0 = []

    def f():
        live = hand_states(params, H.data, states.h_final[0])
        out, caches = step_forward(prev_ids, ev, live, S.data, params)
        p_gold = out.p[np.arange(len(gold)), gold]
        if not p0:  # grad_check's first call is at the evaluation point
            p0.append(p_gold.astype(np.float64))

        def back(g):
            g_state, g_H = gold_step_backward(params, ev, live, out, caches, gold,
                                              -g * wp / p_gold, g * ws)
            S.grad += g_state
            H.grad += g_H[0]

        return ag._node(-(wp * np.log(p_gold / p0[0])).sum() + (out.state * ws).sum(), back)

    return f, [("state", S), ("H", H)]


def zero_params(params):
    for _, p in params.named_parameters():
        p.data[...] = 0.0
    return params


def copy_task_corpus(n_pairs, seed, n_vocab=50, min_len=3, max_len=8):
    """Identity-paraphrase pairs; each sequence carries exactly one OOV token.

    Returns (pairs, oov_tokens) where pairs[i] = (text, text) and
    oov_tokens[i] is the OOV surface planted in pair i. Base tokens are
    w00..w49; OOV tokens are unique per pair and never enter any vocabulary
    built from base tokens alone.
    """
    rng = np.random.default_rng(seed)
    base = [f"w{i:02d}" for i in range(n_vocab)]
    pairs = []
    oovs = []
    for i in range(n_pairs):
        length = int(rng.integers(min_len, max_len + 1))
        tokens = [base[int(j)] for j in rng.integers(0, n_vocab, size=length)]
        oov = f"name{i:04d}x"
        tokens[int(rng.integers(0, length))] = oov
        text = " ".join(tokens)
        pairs.append((text, text))
        oovs.append(oov)
    return pairs, oovs


def copy_task_vocab(n_vocab=50):
    from paragen import build_vocab

    return build_vocab([[f"w{i:02d}"] for i in range(n_vocab)], max_size=n_vocab + 4)


def random_sentence_docs(seed, n_sentences, n_sources=4, vocab_size=120):
    """Documents of random sentences for retrieval-exactness trials."""
    rng = np.random.default_rng(seed)
    words = [f"t{i:03d}" for i in range(vocab_size)]
    docs = []
    per_doc = max(1, n_sentences // n_sources)
    sid = 0
    for d in range(n_sources):
        count = per_doc if d < n_sources - 1 else n_sentences - per_doc * (n_sources - 1)
        sents = []
        for _ in range(count):
            length = int(rng.integers(4, 12))
            sents.append(" ".join(words[int(j)] for j in rng.integers(0, vocab_size, size=length)))
            sid += 1
        docs.append(Document(id=f"d{d}", source=f"src{d}", title="",
                             body=". ".join(s.capitalize() for s in sents) + "."))
    return docs


def zipf_sentence_docs(seed, n_sentences, n_sources=5, vocab_size=2000, per_doc=10):
    """Documents of 6-20 word sentences drawn with P(rank r) ~ 1/r, so a few
    terms (and the period) occur in most sentences, as in news text."""
    rng = np.random.default_rng(seed)
    words = np.array([f"z{i:05d}" for i in range(vocab_size)])
    p = 1.0 / np.arange(1, vocab_size + 1)
    lengths = rng.integers(6, 21, size=n_sentences)
    drawn = words[rng.choice(vocab_size, size=int(lengths.sum()), p=p / p.sum())].tolist()
    ends = np.cumsum(lengths).tolist()
    sents = [" ".join(drawn[e - n:e]) for n, e in zip(lengths.tolist(), ends)]
    return [Document(id=f"z{d:05d}", source=f"src{int(rng.integers(n_sources))}", title="",
                     body=". ".join(s.capitalize() for s in sents[i:i + per_doc]) + ".")
            for d, i in enumerate(range(0, n_sentences, per_doc))]


def planted_paraphrase_docs(seed, n_planted=50, n_distractors=200):
    """Templated near-paraphrase pairs split across two outlets, plus noise.

    Returns (docs, planted) where planted is a list of (sentence_a,
    sentence_b) lowercase token-text tuples for recall checking.
    """
    rng = np.random.default_rng(seed)
    subjects = ["the mayor", "the council", "a spokesman", "the ministry",
                "the company", "the union", "the committee", "the agency"]
    verbs = [("announced", "declared"), ("rejected", "dismissed"),
             ("approved", "endorsed"), ("postponed", "delayed")]
    objects = ["the new budget plan", "the controversial housing project",
               "the regional transport deal", "the emergency funding request",
               "the revised energy strategy", "the public safety reform"]
    tails = [("on monday morning", "early on monday"),
             ("after a long debate", "following a lengthy debate"),
             ("without further comment", "and declined further comment"),
             ("during the press briefing", "at the press briefing")]

    planted = []
    a_sents = []
    b_sents = []
    seen = set()
    while len(planted) < n_planted:
        s = subjects[int(rng.integers(len(subjects)))]
        v = verbs[int(rng.integers(len(verbs)))]
        o = objects[int(rng.integers(len(objects)))]
        t = tails[int(rng.integers(len(tails)))]
        key = (s, v[0], o, t[0])
        if key in seen:
            continue
        seen.add(key)
        sent_a = f"{s} {v[0]} {o} {t[0]}"
        sent_b = f"{s} {v[1]} {o} {t[1]}"
        planted.append((sent_a, sent_b))
        a_sents.append(sent_a)
        b_sents.append(sent_b)

    nouns = ["storm", "festival", "museum", "river", "harvest", "election",
             "stadium", "library", "airport", "market", "garden", "bridge"]
    extras = ["visitors", "residents", "officials", "students", "farmers",
              "tourists", "workers", "artists"]
    distract = []
    for i in range(n_distractors):
        n1 = nouns[int(rng.integers(len(nouns)))]
        n2 = extras[int(rng.integers(len(extras)))]
        distract.append(f"local {n2} watched the {n1} report number {i} with interest")

    half = len(distract) // 2
    docs = [
        Document(id="outletA", source="outletA", title="",
                 body=". ".join(s.capitalize() for s in a_sents + distract[:half]) + "."),
        Document(id="outletB", source="outletB", title="",
                 body=". ".join(s.capitalize() for s in b_sents + distract[half:]) + "."),
    ]
    return docs, planted


def write_doc_fixture(tmp_path, docs):
    doc_dir = tmp_path / "docs"
    doc_dir.mkdir(exist_ok=True)
    for d in docs:
        payload = {"id": d.id, "source": d.source, "title": d.title,
                   "body": d.body, "timestamp": d.timestamp or "2026-01-01T00:00:00Z"}
        (doc_dir / f"{d.id}.json").write_text(json.dumps(payload), encoding="utf-8")
    return doc_dir


@pytest.fixture
def three_source_docs():
    return [
        Document(id="a1", source="siteA", title="t",
                 body="The river flooded the old town early on monday. "
                      "Local residents moved to higher ground quickly."),
        Document(id="b1", source="siteB", title="t",
                 body="The river flooded the old town on monday morning. "
                      "Many families were evacuated to schools nearby."),
        Document(id="c1", source="siteC", title="t",
                 body="Completely unrelated cooking advice fills this page. "
                      "Use fresh basil and good olive oil every time."),
    ]
