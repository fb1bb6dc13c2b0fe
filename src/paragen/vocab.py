"""Tokenization, the fixed vocabulary, and per-sentence extended vocabularies.

The extended vocabulary gives each out-of-vocabulary source word a temporary
id just past the fixed range, so the copy distribution can address it and the
decoder output can be rendered back to the original surface form.
"""

import hashlib
import re
from collections import Counter

from .errors import ValidationError
from .fileio import atomic_write

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")
N_RESERVED = len(RESERVED_TOKENS)

PUNCTUATION = '.,;:!?"()«»'
# \s matches exactly the characters str.split splits on, at every code point
_TOKEN = re.compile(f"[{re.escape(PUNCTUATION)}]|[^\\s{re.escape(PUNCTUATION)}]+")


def tokenize(text):
    """Lowercase, then split into ``_TOKEN`` matches: each PUNCTUATION
    character alone, and each run of other non-whitespace characters.
    Apostrophes stay inside tokens ("l'acqua" is one token)."""
    return _TOKEN.findall(text.lower())


class Vocabulary:
    """Fixed token<->id bijection with four reserved ids at the front."""

    def __init__(self, tokens):
        self.id_to_token = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValidationError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.id_to_token)

    @property
    def size(self):
        return len(self.id_to_token)

    def lookup(self, token):
        """Id of a text token. A reserved string in the text (a literal
        ``<eos>``, say) maps to UNK: the reserved ids mark padding, unknown
        words and sentence boundaries, never a word of the text."""
        idx = self.token_to_id.get(token, UNK)
        return idx if idx >= N_RESERVED else UNK

    def token(self, idx):
        if not 0 <= idx < len(self.id_to_token):
            raise ValidationError(f"token id {idx} out of range [0, {len(self.id_to_token)})")
        return self.id_to_token[idx]

    def __contains__(self, token):
        return token in self.token_to_id

    def save(self, path):
        with atomic_write(path) as fh:
            for tok in self.id_to_token[N_RESERVED:]:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        return cls([t for t in tokens if t])

    def fingerprint(self):
        """SHA-256 over the non-reserved token lines; ties checkpoints to a vocab file."""
        h = hashlib.sha256()
        for tok in self.id_to_token[N_RESERVED:]:
            h.update(tok.encode("utf-8"))
            h.update(b"\n")
        return h.digest()


def build_vocab(corpus, max_size, min_count=1):
    """Keep the most frequent tokens, ties broken lexicographically.

    corpus: iterable of token lists. max_size counts the reserved ids too.
    A reserved string in the data ("<unk>" in PTB-style text) already has its
    id, so it is not counted.
    """
    if max_size <= N_RESERVED:
        raise ValidationError(f"max_size must exceed {N_RESERVED}")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    for tok in RESERVED_TOKENS:
        counts.pop(tok, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, c in ranked if c >= min_count][: max_size - N_RESERVED]
    return Vocabulary(kept)


class ExtendedVocab:
    """A fixed vocabulary plus the distinct OOV tokens of one source sentence.

    Built from the source ``tokens``: each OOV surface form gets one id, the
    first V_fixed, the next V_fixed+1, ... in first-occurrence order, and
    ``source_ids`` holds the whole sentence in this extended id space, as
    ``lookup`` maps it.
    """

    def __init__(self, base, tokens):
        self.base = base
        self._oov_to_id = {}
        for tok in tokens:
            if tok not in base:
                self._oov_to_id.setdefault(tok, base.size + len(self._oov_to_id))
        self.source_oovs = list(self._oov_to_id)
        self.source_ids = [self.lookup(tok) for tok in tokens]

    @property
    def size(self):
        return self.base.size + len(self.source_oovs)

    def lookup(self, token):
        if token in self.base:
            return self.base.lookup(token)
        return self._oov_to_id.get(token, UNK)

    def token(self, idx):
        if idx < self.base.size:
            return self.base.token(idx)
        if idx < self.size:
            return self.source_oovs[idx - self.base.size]
        raise ValidationError(f"extended id {idx} out of range [0, {self.size})")


def encode_target(tokens, ev):
    """Map target tokens to extended ids under the paired source's extension.

    A target OOV that also appears in the source gets that extended id; one
    absent from the source maps to UNK, since neither the vocabulary nor the
    copy branch can ever give it probability mass.
    """
    return [ev.lookup(tok) for tok in tokens]

