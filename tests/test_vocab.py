import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paragen.errors import ValidationError
from paragen.model import ModelDims, ModelParams
from paragen.vocab import (EOS, PAD, PUNCTUATION, RESERVED_TOKENS, UNK, ExtendedVocab, Vocabulary,
                           build_vocab, encode_target, tokenize)

from oracles import loop_tokenize, straight_line_oov_minting


def test_tokenize_punctuation():
    assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_apostrophes():
    assert tokenize("L'acqua è blu.") == ["l'acqua", "è", "blu", "."]


def test_tokenize_guillemets():
    assert tokenize("«Ciao» disse.") == ["«", "ciao", "»", "disse", "."]


# Unicode whitespace outside ASCII, a titlecase letter, letters whose
# lowercase differs in length (İ), apostrophes and the punctuation itself.
TOKEN_PIECES = (list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")
                + list("aBzǅÉéİΣ'’") + list(PUNCTUATION) + ["...", "Sig.", "dR.", "e.g."])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(st.text(), st.lists(st.sampled_from(TOKEN_PIECES)).map("".join)))
def test_tokenize_equals_character_loop(text):
    assert tokenize(text) == loop_tokenize(text)


def test_pattern_whitespace_is_split_whitespace_at_every_code_point():
    """The tokenizer pattern's \\s and the loop's str.split agree on every
    code point, so the two split text at the same characters."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    split_on = set(every) - set("".join(every.split()))
    assert set(re.findall(r"\s", every)) == split_on == {ch for ch in every if ch.isspace()}


def test_build_vocab_frequency_order():
    v = build_vocab([["a", "a", "b"]], max_size=6)
    assert v.id_to_token == ["<pad>", "<unk>", "<bos>", "<eos>", "a", "b"]


def test_build_vocab_tie_break_lexicographic():
    v = build_vocab([["a", "b", "a", "b"]], max_size=5)
    assert v.id_to_token[4] == "a"
    assert len(v) == 5


def test_build_vocab_against_frequency_sort_oracle():
    rng = np.random.default_rng(0)
    tokens = [f"tok{int(i):03d}" for i in rng.zipf(1.5, size=10_000) % 400]
    v = build_vocab([tokens], max_size=100)
    from collections import Counter
    counts = Counter(tokens)
    expected = [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))][:96]
    assert v.id_to_token[4:] == expected


def test_build_vocab_min_count():
    v = build_vocab([["a", "a", "b"]], max_size=10, min_count=2)
    assert "b" not in v
    assert "a" in v


@settings(derandomize=True, deadline=None)
@given(st.lists(st.lists(st.sampled_from(RESERVED_TOKENS + ("a", "b", "c")))),
       st.integers(5, 10))
def test_build_vocab_never_returns_a_reserved_string(corpus, max_size):
    v = build_vocab(corpus, max_size=max_size)
    assert v.id_to_token[:4] == list(RESERVED_TOKENS)
    assert not set(v.id_to_token[4:]) & set(RESERVED_TOKENS)


def test_build_vocab_max_size_guard():
    with pytest.raises(ValidationError):
        build_vocab([["a"]], max_size=4)


def test_lookup_unknown_is_unk():
    v = Vocabulary(["x"])
    assert v.lookup("missing") == UNK
    assert v.lookup("x") == 4
    assert v.token(PAD) == "<pad>"
    assert v.token(EOS) == "<eos>"


def test_reserved_strings_in_text_encode_as_unk():
    v = Vocabulary(["a", "b"])
    ev = ExtendedVocab(v, tokenize("<pad> a <bos> b <eos> <unk> zz"))
    ids = ev.source_ids
    assert ids == [UNK, 4, UNK, 5, UNK, UNK, v.size]
    assert ev.source_oovs == ["zz"]
    assert encode_target(tokenize("a <eos> b"), ev) == [4, UNK, 5]
    assert encode_target(tokenize("<pad> <bos> <unk> zz"), ev) == [UNK, UNK, UNK, v.size]
    assert [v.lookup(t) for t in RESERVED_TOKENS] == [UNK] * 4


@settings(derandomize=True, deadline=None)
@given(st.text())
def test_tokenize_is_idempotent_on_its_joined_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


_TOKEN = st.text(min_size=1).filter(lambda t: t.split() == [t] and t not in RESERVED_TOKENS)


@settings(derandomize=True, deadline=None)
@given(st.lists(_TOKEN, unique=True))
def test_vocabulary_save_load_round_trips(tokens):
    v = Vocabulary(tokens)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.vocab"
        v.save(path)
        again = Vocabulary.load(path)
    assert again.id_to_token == v.id_to_token
    assert again.fingerprint() == v.fingerprint()


def test_vocab_file_round_trip(tmp_path):
    v = build_vocab([["uno", "due", "due", "tre"]], max_size=10)
    path = tmp_path / "v.vocab"
    v.save(path)
    # one token per line, line number = id - 4
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == v.id_to_token[4:]
    again = Vocabulary.load(path)
    assert again.id_to_token == v.id_to_token
    assert again.fingerprint() == v.fingerprint()


def test_vocab_build_deterministic(tmp_path):
    corpus = [["b", "a", "c", "a"], ["c", "b", "a"]]
    p1, p2 = tmp_path / "1.vocab", tmp_path / "2.vocab"
    build_vocab(corpus, max_size=20).save(p1)
    build_vocab(list(corpus), max_size=20).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_encode_source_repeated_oov():
    v = Vocabulary(["the"])
    ev = ExtendedVocab(v, ["the", "zyxxy", "the", "zyxxy"])
    ids = ev.source_ids
    assert ids == [4, v.size, 4, v.size]
    assert ev.source_oovs == ["zyxxy"]


def test_encode_source_all_in_vocab():
    v = Vocabulary(["a", "b"])
    ev = ExtendedVocab(v, ["a", "b", "a"])
    ids = ev.source_ids
    assert ids == [4, 5, 4]
    assert ev.source_oovs == []
    assert ev.size == v.size


def test_encode_source_oov_ordering():
    v = Vocabulary(["x"])
    ev = ExtendedVocab(v, ["aa", "bb"])
    ids = ev.source_ids
    assert ids == [v.size, v.size + 1]
    assert ev.source_oovs == ["aa", "bb"]


def test_encode_source_empty_error():
    from paragen.model import prepare_source

    v = Vocabulary(["x"])
    params = ModelParams(ModelDims(vocab_size=v.size, d_emb=2, d_h=2, d_s=2, d_a=2), seed=0)
    with pytest.raises(ValidationError):
        prepare_source([], params, v)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(["a", "b", "c", "oov", "zz", *RESERVED_TOKENS]),
                          st.text(min_size=1, max_size=2)), min_size=1, max_size=20))
def test_encode_source_equals_minting_oracle(tokens):
    v = Vocabulary(["a", "b", "c"])
    ev = ExtendedVocab(v, tokens)
    want_ids, want_oovs, want_size = straight_line_oov_minting(tokens, v)
    assert ev.source_ids == want_ids
    assert ev.source_oovs == want_oovs
    assert ev.size == want_size


def test_encode_target_oov_in_source():
    v = Vocabulary(["the"])
    ev = ExtendedVocab(v, ["the", "zyxxy"])
    assert encode_target(["zyxxy"], ev) == [v.size]


def test_encode_target_oov_absent_from_source():
    v = Vocabulary(["the"])
    ev = ExtendedVocab(v, ["the"])
    assert encode_target(["qqqq"], ev) == [UNK]


def test_encode_target_in_vocab_regardless_of_source():
    v = Vocabulary(["the", "cat"])
    ev = ExtendedVocab(v, ["the"])
    assert encode_target(["cat"], ev) == [v.lookup("cat")]


def test_round_trip_decode():
    v = Vocabulary(["a", "b"])
    rng = np.random.default_rng(5)
    pool = ["a", "b", "oov1", "oov2", "oov3"]
    for _ in range(50):
        tokens = [pool[int(i)] for i in rng.integers(0, len(pool), size=rng.integers(1, 12))]
        ev = ExtendedVocab(v, tokens)
        assert [ev.token(i) for i in ev.source_ids] == tokens


def test_encode_target_id_bound_property():
    v = Vocabulary(["a", "b", "c"])
    rng = np.random.default_rng(6)
    pool = ["a", "b", "c", "n1", "n2", "n3", "n4"]
    for _ in range(100):
        src = [pool[int(i)] for i in rng.integers(0, len(pool), size=rng.integers(1, 8))]
        tgt = [pool[int(i)] for i in rng.integers(0, len(pool), size=rng.integers(1, 8))]
        ev = ExtendedVocab(v, src)
        for t in encode_target(tgt, ev):
            assert 0 <= t < ev.size


def test_extended_vocab_token_range_error():
    v = Vocabulary(["a"])
    ev = ExtendedVocab(v, ["a", "oov"])
    assert ev.token(v.size) == "oov"
    with pytest.raises(ValidationError):
        ev.token(ev.size)


def test_embedding_lookup_rows():
    # the decoder step embeds each row's previous id: a fixed id its own row,
    # an extended id the UNK row, and a negative id is rejected
    from paragen.layers import lstm_cell
    from paragen.model import prepare_source
    from paragen.pointer import step_forward

    params = ModelParams(ModelDims(vocab_size=6, d_emb=4, d_h=2, d_s=2, d_a=2), seed=1)
    ev, states, state, _ = prepare_source(["a", "oov"], params, Vocabulary(["a", "b"]))
    rows = np.repeat(state, 3, axis=0)
    out, _ = step_forward([3, 17, UNK], ev, states, rows, params)
    z = np.concatenate([params.embedding.data[3], out.context[0], rows[0, :2]])
    W, b = states.gates
    h, c, _ = lstm_cell(z[None] @ W.T + b, rows[:1, 2:])
    np.testing.assert_allclose(out.state[0], np.concatenate([h[0], c[0]]), atol=1e-15, rtol=0)
    np.testing.assert_allclose(out.state[1], out.state[2], atol=1e-15, rtol=0)
    with pytest.raises(ValidationError):
        step_forward([-1], ev, states, rows[:1], params)
