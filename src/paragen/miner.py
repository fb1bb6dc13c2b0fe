"""Mining aligned sentence pairs from multi-source document collections.

Documents are segmented into sentences, indexed under log-TF-IDF weights,
and each sentence is matched against sentences from *other* sources by exact
cosine ranking. Pairs inside a similarity band become paraphrase candidates:
the lower bound drops unrelated sentences, the upper bound drops verbatim
syndicated copies.
"""

import json
import logging
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fileio import atomic_write, write_pair_lines
from .vocab import tokenize

log = logging.getLogger(__name__)

DEFAULT_ABBREVIATIONS = frozenset({
    "sig.", "sig.ra", "dott.", "dr.", "prof.", "ing.", "avv.", "on.",
    "mr.", "mrs.", "ms.", "st.", "jr.", "sr.", "vs.", "etc.", "e.g.", "i.e.",
    "ca.", "col.", "gen.", "sen.", "rep.", "no.", "n.", "p.", "pp.", "art.",
})

# Dense cosines held per block of queries: 128 KiB of float64 at any corpus
# size (one query's row when a row alone is wider).
BLOCK_ELEMENTS = 1 << 14

# a candidate sentence end: . ! or ? and the whitespace after it
_CANDIDATE_END = re.compile(r"[.!?]\s+")
_OPENERS = '"«(\''


@dataclass
class Document:
    id: str
    source: str
    title: str
    body: str
    timestamp: str = ""


@dataclass
class SentenceRecord:
    sid: int
    doc_id: str
    source: str
    text: str
    tokens: list


@dataclass
class SentencePair:
    x: str
    y: str
    similarity: float
    x_sid: int
    y_sid: int
    x_source: str
    y_source: str
    x_doc: str = ""
    y_doc: str = ""


@dataclass
class MineConfig:
    k: int = 3
    min_sim: float = 0.5
    max_sim: float = 0.95
    min_tokens: int = 4
    max_tokens: int = 60
    abbreviations: frozenset = DEFAULT_ABBREVIATIONS

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("MineConfig: k must be >= 1")
        if not 0.0 <= self.min_sim <= self.max_sim <= 1.0:
            raise ValidationError("MineConfig: need 0 <= min_sim <= max_sim <= 1")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ValidationError("MineConfig: need 1 <= min_tokens <= max_tokens")
        self.abbreviations = frozenset(a.lower() for a in self.abbreviations)


def load_abbreviations(path):
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def segment(doc, min_tokens=MineConfig.min_tokens, max_tokens=MineConfig.max_tokens,
            abbreviations=DEFAULT_ABBREVIATIONS):
    """Split a document body into sentences, as (text, tokens) pairs.

    A sentence ends at a ``_CANDIDATE_END`` match when the character after
    it is uppercase or an opener (" « ( '), unless the . ends a word that,
    lowercased, is in ``abbreviations`` (whose entries are lowercase). Each
    text has its whitespace runs collapsed to one space and is tokenized
    once; sentences outside [min_tokens, max_tokens] tokens are dropped.
    """
    body, raw, start = doc.body, [], 0
    for end in _CANDIDATE_END.finditer(body):
        i, j = end.span()
        if j < len(body) and (body[j].isupper() or body[j] in _OPENERS) and not (
                body[i] == "." and body[start:i + 1].rsplit(None, 1)[-1].lower() in abbreviations):
            raw.append(body[start:i + 1])
            start = j
    raw.append(body[start:])
    return [(" ".join(text.split()), tokens) for text in raw
            if (tokens := tokenize(text)) and min_tokens <= len(tokens) <= max_tokens]


def _distinct_terms(ids, lengths, n_terms):
    """Each row's distinct term ids in first-occurrence order, with their tf,
    as (row, term id, tf) arrays: row r holds the next ``lengths[r]`` of the
    flat term ``ids`` (each below ``n_terms``)."""
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64) * n_terms, lengths)
    keys += np.asarray(ids, dtype=np.int64)
    keys, first, tf = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)  # rows stay ascending
    return (*np.divmod(keys[order], n_terms), tf[order])


def _tfidf_weights(rows, terms, tf, idf):
    """L2-normalized (1 + log tf) * idf of ``_distinct_terms``' entries, the
    floats of that expression in Python: 1 + log tf from a ``math.log`` table
    (``np.log`` rounds some values differently), and each norm summed in term
    order, one row of a padded ``cumsum``."""
    w = np.array([0.0] + [1.0 + math.log(c) for c in range(1, tf.max(initial=0) + 1)])[tf]
    w *= idf[terms]
    counts = np.bincount(rows)
    squares = np.zeros((len(counts), counts.max(initial=1)))
    squares[rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)] = w * w
    w /= np.sqrt(np.cumsum(squares, axis=1, out=squares)[:, -1])[rows]
    return w


def _spans(ptr, keys):
    """The positions of CSR rows ``keys`` (row pointers ``ptr``) laid end to
    end, as one ``arange`` shifted row by row, and each row's length."""
    starts = ptr[keys]
    lengths = ptr[keys + 1] - starts
    at = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    at += np.arange(len(at))
    return at, lengths


class InvertedIndex:
    """Exact cosine scoring of the held sentences, queried by sid, over
    L2-normalized log-TF-IDF vectors in two CSRs of the same weights.
    Term-major: term id ``t`` occurs in sentences ``sids[ptr[t]:ptr[t + 1]]``
    (ascending) with ``weights`` of that span. Sid-major: sentence ``s`` holds
    term ids ``row_terms[row_ptr[s]:row_ptr[s + 1]]`` (first occurrence first)
    with ``row_weights`` of that span. ``source_ids[sid]`` numbers each held
    sentence's source (-1 for a sid with no record)."""

    def __init__(self, records):
        records = sorted(records, key=lambda rec: rec.sid)
        term_ids, sources = {}, {}
        ids = [term_ids.setdefault(tok, len(term_ids)) for rec in records for tok in rec.tokens]
        rows, self.row_terms, tf = _distinct_terms(ids, [len(rec.tokens) for rec in records],
                                                   len(term_ids))
        df = np.bincount(self.row_terms, minlength=len(term_ids))
        df_values, at = np.unique(df, return_inverse=True)  # n counts token-less records too
        idf = np.array([math.log(1.0 + len(records) / d) for d in df_values.tolist()])[at]
        self.row_weights = _tfidf_weights(rows, self.row_terms, tf, idf)
        self.records = {rec.sid: rec for rec in records if rec.tokens}  # sid -> SentenceRecord
        self.width = max(self.records, default=-1) + 1  # columns of a dense score row
        self.source_ids = np.full(self.width, -1)
        self.source_ids[list(self.records)] = [
            sources.setdefault(rec.source, len(sources)) for rec in self.records.values()]
        sids = np.array([rec.sid for rec in records], dtype=np.int64)[rows]
        self.row_ptr = np.concatenate([[0], np.cumsum(np.bincount(sids, minlength=self.width))])
        order = np.argsort(self.row_terms, kind="stable")  # each term's sids stay ascending
        self.sids, self.weights = sids[order], self.row_weights[order]
        self.ptr = np.concatenate([[0], np.cumsum(df)])

    def _sid(self, record):
        """``record``'s sid as a one-query array, if this index holds ``record``."""
        if self.records.get(record.sid) != record:
            raise ValidationError(f"sid {record.sid}: not a record this index holds")
        return np.array([record.sid])

    def _dense_scores(self, sids):
        """(sids as an intp array, cosines of held sentences ``sids`` (any int
        sequence; a row each) against every sid column). Each query's postings,
        in the order of its sid-major row, are added by one ``bincount`` in input
        order: every cosine is the same sequence of additions, whatever the block."""
        sids = np.asarray(sids)
        if sids.ndim != 1 or sids.size and sids.dtype.kind not in "iu":
            raise ValidationError(f"sids {sids.tolist()!r}: not a sequence of ints")
        if missing := [sid for sid in sids.tolist() if sid not in self.records]:
            raise ValidationError(f"sid {missing[0]}: not a sentence this index holds")
        sids = sids.astype(np.intp, copy=False)
        at, counts = _spans(self.row_ptr, sids)
        query_weights = self.row_weights[at]
        at, lengths = _spans(self.ptr, self.row_terms[at])
        products = self.weights[at]
        products *= np.repeat(query_weights, lengths)
        cells = self.sids[at]
        del at  # 3 postings-long arrays live, not 4: glibc reuses their pages every block
        cells += np.repeat(np.repeat(np.arange(len(sids)) * self.width, counts), lengths)
        block = np.bincount(cells, products, minlength=len(sids) * self.width)
        return sids, block.reshape(len(sids), self.width)

    def scores(self, record):
        """Cosine of held ``record`` against every indexed sentence it shares
        a term with (no exclusions), as {sid: cosine} in sid order."""
        row = self._dense_scores(self._sid(record))[1][0]
        hit = np.flatnonzero(row)
        return dict(zip(hit.tolist(), row[hit].tolist()))

    def top_k(self, sids, k):
        """Exact top-k other-source neighbours of held sentences ``sids`` (any
        sequence of ints), one [(sid, cosine)] list each, ranked by (-cosine, sid)."""
        sids, block = self._dense_scores(sids)
        block *= self.source_ids[sids, None] != self.source_ids  # same source to 0, rest exact
        # every candidate tied with the k-th largest stays for the sid tie-break; at
        # k >= width the k-th is the row minimum, so every nonzero cosine stays
        cut = self.width - min(k, self.width)
        kth = np.partition(block, cut, axis=1)[:, cut, None]
        hits = np.flatnonzero((block >= kth) & (block > 0.0))
        rows, cols = np.divmod(hits, self.width)
        sims = block.ravel()[hits]
        order = np.lexsort((cols, -sims, rows))
        rows, cols, sims = rows[order], cols[order], sims[order]
        keep = np.arange(len(rows)) - np.searchsorted(rows, rows) < k
        rows, cols, sims = rows[keep], cols[keep], sims[keep]
        bounds = np.searchsorted(rows, np.arange(len(sids) + 1)).tolist()
        pairs = list(zip(cols.tolist(), sims.tolist()))
        return [pairs[a:b] for a, b in zip(bounds, bounds[1:])]


def build_index(records):
    """Weight the records, token-less ones counted in n, and index them by sid (distinct, >= 0)."""
    if not records:
        raise ValidationError("build_index: no sentences")
    sids = sorted(rec.sid for rec in records)
    if bad := [b for a, b in zip([-1] + sids, sids) if b <= a]:  # not above the one before
        raise ValidationError(f"build_index: sid {bad[0]} is negative or repeated")
    return InvertedIndex(records)


def query_similar(ref, index, k):
    """Exact top-k cosine neighbours of ``ref``, a held record, from other sources.

    Sentences sharing the reference's source identifier are excluded (which
    also removes the reference itself). Ties break toward the lower sid.
    """
    if k < 1:
        raise ValidationError("query_similar: k must be >= 1")
    return index.top_k(index._sid(ref), k)[0]


def sentence_records(docs, cfg=MineConfig()):
    """Segment documents (sorted by id, for stable sids) into records, each
    keeping the tokens ``segment`` made for its text."""
    records = []
    for doc in sorted(docs, key=lambda d: d.id):
        for text, tokens in segment(doc, cfg.min_tokens, cfg.max_tokens, cfg.abbreviations):
            records.append(SentenceRecord(sid=len(records), doc_id=doc.id, source=doc.source,
                                          text=text, tokens=tokens))
    return records


def align(docs, cfg=MineConfig(), threads=1):
    """Mine aligned sentence pairs from a multi-source document collection.

    Every sentence queries its top-k other-source neighbours; pairs whose
    cosine falls inside [min_sim, max_sim] are kept, canonically ordered by
    sid and deduplicated. Output is independent of document input order.
    """
    sources = {d.source for d in docs}
    if len(sources) < 2:
        raise ValidationError(f"align: need documents from at least 2 sources, got {len(sources)}")
    records = sentence_records(docs, cfg)
    if not records:
        return []
    index = build_index(records)
    held = np.fromiter(index.records, np.int64)  # in sid order
    step = max(1, BLOCK_ELEMENTS // index.width)
    blocks = [held[i:i + step] for i in range(0, len(held), step)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            block_hits = list(pool.map(index.top_k, blocks, [cfg.k] * len(blocks)))
    else:
        block_hits = [index.top_k(block, cfg.k) for block in blocks]
    all_hits = [hits for per_block in block_hits for hits in per_block]

    pairs = {}
    for query, hits in zip(held.tolist(), all_hits):
        for sid, sim in hits:
            if not cfg.min_sim <= sim <= cfg.max_sim:
                continue
            lo, hi = (query, sid) if query < sid else (sid, query)
            if (lo, hi) not in pairs:
                a, b = index.records[lo], index.records[hi]
                pairs[(lo, hi)] = SentencePair(
                    x=a.text, y=b.text, similarity=sim,
                    x_sid=a.sid, y_sid=b.sid,
                    x_source=a.source, y_source=b.source,
                    x_doc=a.doc_id, y_doc=b.doc_id)
    return [pairs[key] for key in sorted(pairs)]


def write_pairs(pairs, tsv_path, sidecar_path):
    """Write the training TSV and a JSON-lines sidecar of every other field, both
    in full before either is replaced (the sidecar first): a failure keeps the old TSV."""
    with atomic_write(tsv_path) as tsv, atomic_write(sidecar_path) as sidecar:
        write_pair_lines(tsv, ((p.x, p.y) for p in pairs))
        for p in pairs:
            meta = {key: value for key, value in vars(p).items() if key not in ("x", "y")}
            sidecar.write(json.dumps(meta, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# ingestion


def load_documents(directory):
    """Read one JSON document per file: {id, source, title, body, timestamp}."""
    docs = []
    try:
        names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
    except OSError as exc:
        raise ValidationError(f"load_documents: cannot list {directory}: {exc}") from exc
    for name in names:
        path = os.path.join(directory, name)
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            docs.append(Document(
                id=str(raw["id"]), source=str(raw["source"]),
                title=str(raw.get("title", "")), body=str(raw["body"]),
                timestamp=str(raw.get("timestamp", ""))))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            log.warning("skipping %s: %s", path, exc)
    docs.sort(key=lambda d: d.id)
    return docs
