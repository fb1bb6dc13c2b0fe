import copy
import dataclasses
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paragen import miner
from paragen.errors import ValidationError
from paragen.miner import (DEFAULT_ABBREVIATIONS, Document, InvertedIndex, MineConfig,
                           SentenceRecord, align, build_index, load_documents, query_similar,
                           segment, sentence_records, write_pairs)
from paragen.vocab import PUNCTUATION, tokenize

from conftest import (planted_paraphrase_docs, random_sentence_docs, three_source_docs,
                      write_doc_fixture, zipf_sentence_docs)
from oracles import (brute_force_neighbours, dense_tfidf, dict_postings, dict_query_similar,
                     dict_tfidf, loop_segment, loop_tokenize)


def _doc(body, doc_id="d0", source="s0"):
    return Document(id=doc_id, source=source, title="", body=body)


def _texts(sentences):
    return [text for text, _ in sentences]


def test_segment_basic_rule():
    out = segment(_doc("A b c d. E f g h."))
    assert out == [("A b c d.", ["a", "b", "c", "d", "."]),
                   ("E f g h.", ["e", "f", "g", "h", "."])]


def test_segment_respects_abbreviation_stoplist():
    out = segment(_doc("Sig. Rossi parla qui oggi."))
    assert _texts(out) == ["Sig. Rossi parla qui oggi."]


def test_segment_requires_following_uppercase():
    out = segment(_doc("the file name.txt is not a boundary here today."))
    assert len(out) == 1


def test_segment_drops_short_and_long():
    short = "Too short. " + " ".join(f"w{i}" for i in range(70)) + " End here."
    out = segment(_doc(short))
    assert out == []  # 2-token and 71-token sentences both filtered


def test_segment_empty_body():
    assert segment(_doc("   ")) == []


def test_segment_splits_on_newline_whitespace():
    out = segment(_doc("First sentence goes here tonight.\nSecond sentence also goes here."))
    assert len(out) == 2


@settings(derandomize=True, deadline=None)
@given(st.text(alphabet="aBc Sig.dr!?\n\"«(", max_size=200),
       st.integers(1, 6), st.integers(0, 6))
def test_segment_keeps_exactly_the_sentences_within_the_token_bounds(body, lo, extra):
    doc = _doc(body)
    every = _texts(segment(doc, 1, 10 ** 6))
    # with no bound, segmentation loses no token
    assert tokenize(" ".join(every)) == tokenize(body)
    kept = _texts(segment(doc, lo, lo + extra))
    assert kept == [s for s in every if lo <= len(tokenize(s)) <= lo + extra]


# Characters where a pattern and a character loop could part: Unicode
# whitespace outside ASCII (the \x1c-\x1f separators, NEL, NBSP, LINE
# SEPARATOR, the ideographic space), a titlecase letter (isupper() is False),
# letters whose lowercase differs in length (İ), the punctuation, apostrophes,
# openers, an ellipsis and abbreviations in mixed case.
TEXT_PIECES = (list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")
               + list("aBzǅÉéİ'’") + list(PUNCTUATION)
               + ["...", "Sig.", "sIG.", "Dr.", "dR.", "e.g.", "E.G.", "St.", "Mr."])
texts = st.lists(st.sampled_from(TEXT_PIECES), max_size=60).map("".join)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(texts, st.integers(0, 8), st.integers(0, 8))
def test_segment_equals_character_loop(body, lo, extra):
    """The pattern segmenter keeps the loop's sentences, in order, at the
    widest bounds and at random ones, and each sentence's tokens are its
    text's tokens as the tokenizer loop makes them."""
    doc = _doc(body)
    for bounds in ((1, 10 ** 6), (lo, lo + extra)):
        out = segment(doc, *bounds, DEFAULT_ABBREVIATIONS)
        assert _texts(out) == loop_segment(body, *bounds, DEFAULT_ABBREVIATIONS)
        assert all(tokens == loop_tokenize(text) for text, tokens in out)


def test_each_mined_sentence_is_tokenized_once(monkeypatch):
    """segment tokenizes each candidate sentence once, and sentence_records
    and align keep those very token lists instead of tokenizing again."""
    made = []

    def counting(text):
        made.append(tokenize(text))
        return made[-1]

    monkeypatch.setattr(miner, "tokenize", counting)
    docs = zipf_sentence_docs(seed=3, n_sentences=60)
    records = sentence_records(docs, MineConfig(min_tokens=1, max_tokens=10 ** 6))
    assert len(records) == len(made) == 60
    assert all(rec.tokens is tokens for rec, tokens in zip(records, made))
    made.clear()
    align(docs, MineConfig(min_tokens=1, max_tokens=10 ** 6))
    assert len(made) == 60


def test_mine_config_lowercases_abbreviations():
    cfg = MineConfig(abbreviations=frozenset({"Dr.", "SIG."}))
    assert cfg.abbreviations == {"dr.", "sig."}
    doc = _doc("Il Dr. Rossi parla qui oggi. Il Sig. Bianchi ascolta da qui.")
    assert [r.text for r in sentence_records([doc], cfg)] == [
        "Il Dr. Rossi parla qui oggi.", "Il Sig. Bianchi ascolta da qui."]


def test_index_self_similarity():
    recs = sentence_records([_doc("A lonely single sentence lives here.")])
    index = build_index(recs)
    scores = index.scores(recs[0])
    assert scores[recs[0].sid] == pytest.approx(1.0, abs=1e-12)


def test_index_identical_sentences_cosine_one():
    docs = [_doc("The very same sentence appears twice.", "a", "srcA"),
            _doc("The very same sentence appears twice.", "b", "srcB")]
    recs = sentence_records(docs)
    index = build_index(recs)
    hits = query_similar(recs[0], index, k=1)
    assert hits[0][0] == recs[1].sid
    assert hits[0][1] == pytest.approx(1.0, abs=1e-12)


def test_pairwise_cosines_match_dense_oracle():
    docs = random_sentence_docs(seed=0, n_sentences=60, vocab_size=40)
    recs = sentence_records(docs)
    index = build_index(recs)
    M = dense_tfidf(recs)
    dense = M @ M.T
    for rec in recs:
        scores = index.scores(rec)
        for other in recs:
            got = scores.get(other.sid, 0.0)
            assert got == pytest.approx(dense[rec.sid, other.sid], abs=1e-9)


def _rows(index, recs):
    """Each held sentence's sid-major row of ``index`` as [(term, weight)]. Term
    ids number the tokens in first-occurrence order over ``recs`` in sid order."""
    names = list(dict.fromkeys(tok for rec in sorted(recs, key=lambda r: r.sid)
                               for tok in rec.tokens))
    rows = {}
    for sid in index.records:
        span = slice(index.row_ptr[sid], index.row_ptr[sid + 1])
        rows[sid] = [(names[t], w) for t, w in zip(index.row_terms[span].tolist(),
                                                    index.row_weights[span].tolist())]
    return rows


def test_sid_rows_reproduce_dict_weights():
    recs = sentence_records(random_sentence_docs(seed=2, n_sentences=80, vocab_size=50))
    # a record with no tokens gets no weights but still counts in n
    recs.append(SentenceRecord(sid=len(recs), doc_id="e", source="srcE", text="", tokens=[]))
    index = build_index(recs)
    _, want = dict_tfidf(recs)
    assert len(index.records) == len(recs) - 1
    assert _rows(index, recs) == {rec.sid: list(want[rec.sid].items()) for rec in recs[:-1]}


def test_build_index_rejects_duplicate_or_negative_sids():
    def record(sid, text):
        return SentenceRecord(sid=sid, doc_id=f"d{sid}", source=f"s{sid}", text=text,
                              tokens=text.split())

    with pytest.raises(ValidationError, match="sid 1 is negative or repeated"):
        build_index([record(0, "x y"), record(1, "x y"), record(1, "z w")])
    with pytest.raises(ValidationError, match="sid 0 is negative or repeated"):
        build_index([record(0, "x y"), record(0, "")])  # a token-less duplicate too
    with pytest.raises(ValidationError, match="sid -1 is negative or repeated"):
        build_index([record(0, "x y"), record(-1, "z w")])


def test_norm_adds_squares_left_to_right():
    """The squares of [1, 1e-8 x 4] sum to 1.0 added in order, but to
    1 + 4e-16 rounded once (fsum) or compensated (Python 3.12's ``sum()``):
    the miner's norm is the ordered one on every Python."""
    raw = [1.0] + [1e-8] * 4
    ordered = 0.0
    for w in raw:
        ordered += w * w
    assert ordered != math.fsum(w * w for w in raw)
    got = miner._tfidf_weights(np.zeros(5, dtype=np.int64), np.arange(5), np.ones(5, np.int64),
                               np.array(raw))
    assert got.tolist() == [w / math.sqrt(ordered) for w in raw]


def test_query_similar_exact_vs_brute_force():
    docs = random_sentence_docs(seed=1, n_sentences=200, vocab_size=80)
    recs = sentence_records(docs)
    index = build_index(recs)
    for rec in recs[::7]:
        mine = query_similar(rec, index, k=5)
        oracle = brute_force_neighbours(recs, rec.sid, k=5)
        assert [sid for sid, _ in mine] == [sid for sid, _ in oracle]


def test_query_similar_excludes_same_source():
    docs = [
        _doc("The quick brown fox jumps over the lazy dog.", "a", "srcA"),
        _doc("The quick brown fox jumps over the lazy dog.", "b", "srcA"),
        _doc("The quick brown fox jumps over the lazy dog.", "c", "srcB"),
    ]
    recs = sentence_records(docs)
    index = build_index(recs)
    hits = query_similar(recs[0], index, k=5)
    assert [index.records[sid].source for sid, _ in hits] == ["srcB"]


def test_query_similar_disjoint_vocabulary_empty():
    # no trailing periods: "." would count as a shared term
    docs = [_doc("Alpha beta gamma delta epsilon tonight", "a", "srcA"),
            _doc("Omega psi chi phi upsilon yesterday", "b", "srcB")]
    recs = sentence_records(docs)
    index = build_index(recs)
    hits = query_similar(recs[0], index, k=3)
    assert hits == []


def test_query_similar_tie_breaks_lower_sid():
    docs = [_doc("Unique reference sentence with shared words.", "a", "srcA"),
            _doc("Unique reference sentence with shared words.", "b", "srcB"),
            _doc("Unique reference sentence with shared words.", "c", "srcC")]
    recs = sentence_records(docs)
    index = build_index(recs)
    hits = query_similar(recs[0], index, k=2)
    assert [sid for sid, _ in hits] == sorted(sid for sid, _ in hits)


C5_SIZES = [50, 75, 100, 150, 200, 250, 300, 350, 400, 450,
            500, 550, 600, 650, 700, 750, 800, 850, 900, 1000]


def _exact_against_dict_path(recs, stride):
    index = build_index(recs)
    _, weights = dict_tfidf(recs)
    postings = dict_postings(weights)
    for rec in recs[::stride]:
        for k in (1, 5, len(recs)):  # k = every candidate compares the whole ranking
            want = dict_query_similar(weights[rec.sid], rec.source, index.records, postings, k)
            assert query_similar(rec, index, k) == want, (rec.sid, k)
        everything = dict_query_similar(weights[rec.sid], None, index.records, postings, len(recs))
        assert index.scores(rec) == dict(everything)


@pytest.mark.parametrize("trial", range(len(C5_SIZES)))
def test_query_similar_equals_dict_path_on_c5_corpora(trial):
    """Same sids in the same order and the same float bits as the replaced
    dict accumulation, on the corpora of acceptance test c5."""
    docs = random_sentence_docs(seed=trial, n_sentences=C5_SIZES[trial],
                                n_sources=4, vocab_size=100)
    recs = sentence_records(docs)
    _exact_against_dict_path(recs, max(1, len(recs) // 40))


def test_query_similar_equals_dict_path_on_zipf_corpus():
    recs = sentence_records(zipf_sentence_docs(seed=0, n_sentences=700))
    _exact_against_dict_path(recs, 3)


def test_align_independent_of_block_size(monkeypatch):
    docs = random_sentence_docs(seed=5, n_sentences=300, n_sources=4, vocab_size=60)
    cfg = MineConfig(k=4, min_sim=0.2, max_sim=0.99)
    width = build_index(sentence_records(docs, cfg)).width
    top_k = InvertedIndex.top_k
    sizes = []

    def spy(index, sids, k):
        sizes.append(len(sids))
        return top_k(index, sids, k)

    monkeypatch.setattr(InvertedIndex, "top_k", spy)
    runs = {}
    for block, budget, threads in [(1, 1, 1), (7, 7 * width, 1), (7, 7 * width + 3, 2),
                                   ("all", 10 ** 9, 1)]:
        monkeypatch.setattr(miner, "BLOCK_ELEMENTS", budget)
        sizes.clear()
        runs[(block, threads)] = align(docs, cfg, threads=threads)
        assert sum(sizes) == width and max(sizes) == (width if block == "all" else block)
    first = runs[(1, 1)]
    assert first
    for pairs in runs.values():
        assert pairs == first


def test_query_similar_boundary_tie_keeps_lowest_sids():
    copy = "The harbour bridge reopened after long repairs this week."
    filler = "Completely unrelated words fill this other line."
    docs = [_doc(copy, "a0", "srcA"), _doc(copy, "a1", "srcA")]
    docs += [_doc(f"{filler} {copy}", f"c{i}", src)
             for i, src in enumerate(["srcB", "srcC", "srcB", "srcD", "srcC"])]
    recs = sentence_records(docs)
    index = build_index(recs)
    copies = [r.sid for r in recs if r.text == copy and r.source != "srcA"]
    assert len(copies) == 5 and copies != list(range(copies[0], copies[0] + 5))
    hits = query_similar(recs[0], index, k=2)
    assert [sid for sid, _ in hits] == copies[:2]
    assert hits[0][1] == hits[1][1] == index.scores(recs[0])[copies[4]]
    _, weights = dict_tfidf(recs)
    postings = dict_postings(weights)
    for k in range(1, 7):
        assert query_similar(recs[0], index, k) == dict_query_similar(
            weights[recs[0].sid], "srcA", index.records, postings, k)


_FEW_WORDS = st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta", "."]), max_size=7)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.tuples(st.sampled_from(["s0", "s1", "s2"]), _FEW_WORDS), max_size=20),
       _FEW_WORDS.filter(bool), st.lists(st.sampled_from(["beta", "unseen", "."]), max_size=4),
       st.integers(1, 6))
def test_array_index_equals_dict_oracle(rows, copied, stranger_tokens, k):
    """Weights (value and order), ``scores`` and ``top_k`` equal the dict path
    on corpora of five words: repeated tokens, token-less records that count
    in n, ties at the k-th score (the same sentence in all three sources),
    in one block and one sid at a time. A record outside the index that
    reuses sid 0, and a sid the index does not hold, are rejected."""
    rows = [(source, copied) for source in ("s0", "s1", "s2")] + rows
    recs = [SentenceRecord(sid=i, doc_id=f"d{i}", source=source, text=" ".join(tokens),
                           tokens=tokens) for i, (source, tokens) in enumerate(rows)]
    index = build_index(recs)
    _, weights = dict_tfidf(recs)
    postings = dict_postings(weights)
    assert _rows(index, recs) == {rec.sid: list(weights[rec.sid].items())
                                  for rec in recs if rec.tokens}
    held = np.array([rec.sid for rec in recs if rec.tokens])
    assert held.tolist() == list(index.records)
    got = index.top_k(held, k)
    assert [index.top_k(held[i:i + 1], k)[0] for i in range(len(held))] == got
    for sid, hits in zip(held.tolist(), got):
        query = index.records[sid]
        assert hits == dict_query_similar(weights[sid], query.source, index.records, postings, k)
        everything = dict_query_similar(weights[sid], None, index.records, postings, len(recs))
        assert index.scores(query) == dict(everything)
    stranger = SentenceRecord(sid=0, doc_id="q", source="s1", text="", tokens=stranger_tokens)
    for call in (lambda: query_similar(stranger, index, k), lambda: index.scores(stranger)):
        with pytest.raises(ValidationError, match="sid 0: not a record this index holds"):
            call()
    for sid in [rec.sid for rec in recs if not rec.tokens] + [-1, index.width]:
        with pytest.raises(ValidationError, match=f"sid {sid}: not a sentence this index holds"):
            index.top_k(np.append(held, sid), k)


def test_top_k_takes_any_sequence_of_ints():
    """A list, a tuple or an int array of held sids gives the same answer; a
    float array (integral values or not), a nested list, a bare int, a bool
    and an unheld sid are rejected with ValidationError."""
    recs = sentence_records(random_sentence_docs(seed=2, n_sentences=30))
    index = build_index(recs)
    held = [rec.sid for rec in recs if rec.tokens][:4]
    want = index.top_k(np.array(held), 3)
    assert index.top_k(held, 3) == index.top_k(tuple(held), 3) == want
    assert index.top_k(np.array(held, dtype=np.int32), 3) == want
    assert index.top_k([held[0]], 3) == want[:1] and index.top_k([], 3) == []
    for bad in (np.array(held, dtype=float), [0.5], [held[:2]], held[0], [True]):
        with pytest.raises(ValidationError, match="not a sequence of ints"):
            index.top_k(bad, 3)
    with pytest.raises(ValidationError, match=f"sid {index.width}: not a sentence"):
        index.top_k([held[0], index.width], 3)


def test_query_similar_record_outside_the_index():
    """Only a record equal to the one the index holds under its sid is
    queried; any other, a token-less record the index received included, is
    rejected and left as it was."""
    recs = sentence_records(random_sentence_docs(seed=6, n_sentences=200, vocab_size=50))
    recs.append(SentenceRecord(sid=len(recs), doc_id="e", source="src1", text="", tokens=[]))
    index = build_index(recs)
    text = " ".join(recs[3].tokens[:4] + recs[150].tokens[:4] + ["never", "indexed"])
    outsiders = [SentenceRecord(sid=10 ** 6, doc_id="q", source=source, text=text,
                                tokens=tokenize(text)) for source in ("src1", "elsewhere")]
    outsiders += [SentenceRecord(sid=0, doc_id="q", source="s", text="", tokens=["never"]),
                  dataclasses.replace(recs[0], source="elsewhere"), recs[-1]]
    for ref in outsiders:
        before = copy.deepcopy(ref)
        for call in (lambda: query_similar(ref, index, 3), lambda: index.scores(ref)):
            with pytest.raises(ValidationError, match=f"sid {ref.sid}: not a record"):
                call()
        assert ref == before
    # held is compared by value: an equal copy of a held record is that record
    assert query_similar(copy.deepcopy(recs[0]), index, 5) == query_similar(recs[0], index, 5)


def test_align_band_excludes_verbatim_copies():
    docs = [
        _doc("This exact sentence is syndicated everywhere tonight.", "a", "srcA"),
        _doc("This exact sentence is syndicated everywhere tonight.", "b", "srcB"),
    ]
    pairs = align(docs, MineConfig(max_sim=0.95))
    assert pairs == []


def test_align_band_excludes_unrelated():
    docs = [
        _doc("Alpha beta gamma delta epsilon zeta.", "a", "srcA"),
        _doc("Omega psi chi phi upsilon tau.", "b", "srcB"),
    ]
    assert align(docs, MineConfig()) == []


def test_align_finds_near_paraphrases(three_source_docs):
    pairs = align(three_source_docs, MineConfig(min_sim=0.4))
    assert pairs, "expected the flooded-town sentences to align"
    best = pairs[0]
    assert {best.x_source, best.y_source} == {"siteA", "siteB"}
    assert 0.4 <= best.similarity <= 0.95
    assert "river" in best.x.lower() and "river" in best.y.lower()


def test_align_requires_two_sources():
    docs = [_doc("One source only writes sentences here.", "a", "solo"),
            _doc("Still the same single source here.", "b", "solo")]
    with pytest.raises(ValidationError) as err:
        align(docs)
    assert "source" in str(err.value)


def test_align_permutation_invariant(three_source_docs):
    cfg = MineConfig(min_sim=0.3)
    a = align(three_source_docs, cfg)
    b = align(list(reversed(three_source_docs)), cfg)
    assert [(p.x, p.y, p.x_sid, p.y_sid) for p in a] == \
           [(p.x, p.y, p.x_sid, p.y_sid) for p in b]
    assert a[0].similarity == b[0].similarity


def test_align_no_same_source_pairs_and_band(three_source_docs):
    pairs = align(three_source_docs, MineConfig(min_sim=0.2, max_sim=0.99))
    for p in pairs:
        assert p.x_source != p.y_source
        assert 0.2 <= p.similarity <= 0.99
        assert p.x_sid < p.y_sid


def test_align_threads_identical(three_source_docs):
    cfg = MineConfig(min_sim=0.3)
    a = align(three_source_docs, cfg, threads=1)
    b = align(three_source_docs, cfg, threads=3)
    assert [(p.x, p.y, p.similarity) for p in a] == [(p.x, p.y, p.similarity) for p in b]


def planted_recall(pairs, planted):
    from paragen.vocab import tokenize

    def key(text):
        return tuple(t for t in tokenize(text) if t != ".")

    mined = {frozenset((key(p.x), key(p.y))) for p in pairs}
    return sum(1 for a, b in planted if frozenset((key(a), key(b))) in mined)


def test_planted_pair_recall():
    docs, planted = planted_paraphrase_docs(seed=4)
    pairs = align(docs, MineConfig())
    found = planted_recall(pairs, planted)
    assert found >= 45, f"planted-pair recall {found}/50"


def test_write_pairs_outputs(tmp_path, three_source_docs):
    pairs = align(three_source_docs, MineConfig(min_sim=0.3))
    tsv = tmp_path / "out.tsv"
    sidecar = tmp_path / "out.tsv.jsonl"
    write_pairs(pairs, tsv, sidecar)
    lines = tsv.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(pairs)
    assert all(line.count("\t") == 1 for line in lines)
    meta = [json.loads(line) for line in sidecar.read_text().splitlines()]
    assert len(meta) == len(pairs)
    assert all("similarity" in m and "x_source" in m for m in meta)


def test_ingest_local_documents(tmp_path, three_source_docs):
    doc_dir = write_doc_fixture(tmp_path, three_source_docs)
    docs = load_documents(str(doc_dir))
    assert [d.id for d in docs] == ["a1", "b1", "c1"]
    assert docs[0].source == "siteA"


def test_ingest_skips_malformed_json(tmp_path, three_source_docs, caplog):
    doc_dir = write_doc_fixture(tmp_path, three_source_docs[:2])
    (doc_dir / "broken.json").write_text("{not json", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        docs = load_documents(str(doc_dir))
    assert len(docs) == 2
    assert any("broken.json" in r.getMessage() for r in caplog.records)


def test_ingest_missing_directory():
    with pytest.raises(ValidationError):
        load_documents("/definitely/not/here")
