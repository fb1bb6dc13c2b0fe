"""Seeded input generators for the four workloads.

Every generator is a pure function of its seed. The mine corpus is written
as JSON documents and the training pairs as a TSV, which the program then
loads with its own loaders; the mine generator also returns the ground
truth its checker needs.
"""

import json
import os

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def word_list(n):
    """n distinct three-syllable lowercase words, the same list for every seed.

    Consonant-vowel syllables never spell one of the miner's sentence-final
    abbreviations, so every generated period ends a sentence.
    """
    s = len(_SYLLABLES)
    return [_SYLLABLES[i % s] + _SYLLABLES[(i // s) % s] + _SYLLABLES[i // (s * s)]
            for i in range(n)]


class Zipf:
    """Zipf-Mandelbrot sampler over a word list: p(rank r) ~ 1 / (r + 2.7)^s."""

    def __init__(self, words, s=1.0):
        self.words = words
        p = 1.0 / (np.arange(1, len(words) + 1) + 2.7) ** s
        self.cdf = np.cumsum(p / p.sum())

    def sample(self, rng, n):
        idx = np.minimum(np.searchsorted(self.cdf, rng.random(n)), len(self.words) - 1)
        return [self.words[i] for i in idx]


def sentence_text(tokens):
    return " ".join(tokens).capitalize() + "."


# ---------------------------------------------------------------------------
# mine-zipf

MINE_OUTLETS = 6
MINE_REGULAR = 960        # background sentences
MINE_PLANTED = 60         # cross-outlet paraphrase pairs (two sentences each)
MINE_SYNDICATED = 40      # verbatim copies placed in another outlet
MINE_NEAR_DUPLICATES = 40  # one-word edits placed in the same outlet
MINE_DOC_SENTENCES = 10


def mine_corpus(seed, doc_dir):
    """Write a multi-outlet news-like corpus, one JSON file per document.

    Background sentences draw 8-20 words from a Zipfian 20k-word list; the
    lengths cycle, so every seed has the same length mix.
    A planted pair shares four marker words that occur nowhere else and six
    Zipfian words; each side adds three rare words (rank >= 2000) of its own.
    Markers and rare words weigh most under TF-IDF, so the pair's cosine
    sits well inside the default [0.5, 0.95] band and no other sentence
    comes close. Syndicated copies (cosine 1) lie above
    the band. Near-duplicates share their original's outlet, so they must
    never pair with it.

    Returns the ground truth: every sentence in sid order with its outlet,
    the planted and syndicated sid pairs.
    """
    rng = np.random.default_rng([seed, 1])
    zipf = Zipf(word_list(20000))
    outlets = [[] for _ in range(MINE_OUTLETS)]  # lists of (kind, tag, tokens)

    rare = zipf.words[2000:]
    regular = []
    for i in range(MINE_REGULAR):
        toks = zipf.sample(rng, 8 + i % 13)
        o = int(rng.integers(MINE_OUTLETS))
        regular.append((o, len(outlets[o])))
        outlets[o].append(("regular", None, toks))

    for i in range(MINE_PLANTED):
        shared = [f"q{i:03d}{c}x" for c in "abcd"] + zipf.sample(rng, 6)
        own = [rare[j] for j in rng.choice(len(rare), size=6, replace=False)]
        a = shared + own[:3]
        b = shared + own[3:]
        rng.shuffle(a)
        rng.shuffle(b)
        oa, ob = rng.choice(MINE_OUTLETS, size=2, replace=False)
        outlets[int(oa)].append(("planted_a", i, a))
        outlets[int(ob)].append(("planted_b", i, b))

    picks = rng.choice(len(regular), size=MINE_SYNDICATED + MINE_NEAR_DUPLICATES,
                       replace=False)
    for i, r in enumerate(picks[:MINE_SYNDICATED]):
        o, pos = regular[int(r)]
        toks = outlets[o][pos][2]
        other = (o + 1 + int(rng.integers(MINE_OUTLETS - 1))) % MINE_OUTLETS
        outlets[other].append(("syndicated", i, list(toks)))
        outlets[o][pos] = ("syndicated", i, toks)
    for r in picks[MINE_SYNDICATED:]:
        o, pos = regular[int(r)]
        dup = list(outlets[o][pos][2])
        dup[int(rng.integers(len(dup)))] = zipf.sample(rng, 1)[0]
        outlets[o].append(("near_duplicate", None, dup))

    sentences, sources = [], []
    planted, syndicated = {}, {}
    for o, items in enumerate(outlets):
        order = rng.permutation(len(items))
        items = [items[int(j)] for j in order]
        for d in range(0, len(items), MINE_DOC_SENTENCES):
            chunk = items[d:d + MINE_DOC_SENTENCES]
            doc_id = f"outlet{o}-{d // MINE_DOC_SENTENCES:04d}"
            for kind, tag, toks in chunk:
                sid = len(sentences)
                if kind.startswith("planted"):
                    planted.setdefault(tag, []).append(sid)
                elif kind == "syndicated":
                    syndicated.setdefault(tag, []).append(sid)
                sentences.append(sentence_text(toks))
                sources.append(f"outlet{o}")
            doc = {"id": doc_id, "source": f"outlet{o}", "title": doc_id,
                   "body": " ".join(sentence_text(t) for _, _, t in chunk),
                   "timestamp": "2024-02-16T00:00:00Z"}
            with open(os.path.join(doc_dir, doc_id + ".json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
    return {"sentences": sentences, "sources": sources,
            "planted": [tuple(v) for v in planted.values()],
            "syndicated": [tuple(v) for v in syndicated.values()]}


# ---------------------------------------------------------------------------
# train-copy-v54 and train-v10k


def copy_pairs(seed, n_pairs):
    """Identity paraphrases over 50 base words, one unique OOV word each.

    Lengths cycle through 3..8, so any run of six pairs has the same lengths
    whatever the seed."""
    rng = np.random.default_rng([seed, 2])
    base = [f"w{i:02d}" for i in range(50)]
    pairs = []
    for i in range(n_pairs):
        toks = [base[j] for j in rng.integers(0, 50, size=3 + i % 6)]
        toks[int(rng.integers(len(toks)))] = f"name{i:04d}x"
        text = " ".join(toks)
        pairs.append((text, text))
    return pairs


def zipf_pairs(seed, n_pairs):
    """Paraphrase pairs over a Zipfian 30k-word list: the target keeps about
    three quarters of the source words, partly reordered, and draws the rest
    afresh. Source lengths cycle through 8..16, as target lengths do."""
    rng = np.random.default_rng([seed, 3])
    zipf = Zipf(word_list(30000))
    pairs = []
    for i in range(n_pairs):
        src = zipf.sample(rng, 8 + i % 9)
        tgt = list(src)
        for j in rng.choice(len(tgt), size=len(tgt) // 4, replace=False):
            tgt[int(j)] = zipf.sample(rng, 1)[0]
        cut = int(rng.integers(1, len(tgt)))
        tgt = tgt[cut:] + tgt[:cut] if rng.random() < 0.5 else tgt
        pairs.append((" ".join(src), " ".join(tgt)))
    return pairs


def write_tsv(pairs, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in pairs:
            fh.write(f"{x}\t{y}\n")


# ---------------------------------------------------------------------------
# generate-beam4-v10k


def decode_sources(seed, n, vocab_words, length=12, n_oov=2):
    """n sources of exactly ``length`` tokens, ``n_oov`` of them unseen words."""
    rng = np.random.default_rng([seed, 4])
    zipf = Zipf(vocab_words)
    out = []
    for i in range(n):
        toks = zipf.sample(rng, length)
        for j, pos in enumerate(rng.choice(length, size=n_oov, replace=False)):
            toks[int(pos)] = f"zz{i:03d}{j}x"
        out.append(" ".join(toks))
    return out
