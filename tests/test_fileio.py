"""Every file writer replaces its target atomically: a write that fails
partway leaves the previous file intact and no temporary file behind."""

import numpy as np
import pytest

from paragen.errors import ValidationError
from paragen.miner import SentencePair, write_pairs
from paragen.training import save_checkpoint, save_pairs_tsv
from paragen.vocab import Vocabulary

from conftest import tiny_model


def _pair(x, similarity=0.7):
    return SentencePair(x=x, y=x + " too", similarity=similarity, x_sid=0, y_sid=1,
                        x_source="a", y_source="b")


def _checkpoint(path, fail):
    params, vocab = tiny_model(seed=3)
    if fail:  # the header is written, then the payload cannot be serialised
        params.flat = np.array(["not a number"])
    save_checkpoint(params, path, vocab)


def _vocab(path, fail):
    # a lone surrogate cannot be encoded as UTF-8, so its line fails to write
    Vocabulary(["first", "second", "\ud800" if fail else "third"]).save(path)


def _pairs_tsv(path, fail):
    save_pairs_tsv([("a b", "c d"), None if fail else ("e f", "g h")], path)


def _mined_tsv(path, fail):
    write_pairs([_pair("one"), None if fail else _pair("two")], path, str(path) + ".jsonl")


def _mined_sidecar(path, fail):
    # the TSV has no float to format; the sidecar's JSON fails on the second record,
    # after a TSV with other text than the previous one is written in full
    write_pairs([_pair("one"), _pair("three", object()) if fail else _pair("two", 0.6)],
                str(path) + ".tsv", path)


def _mined_sidecar_directory(path, fail):
    # both files are written in full, then the sidecar cannot replace a directory
    sidecar = path.with_name("sidecar.dir" if fail else "sidecar.jsonl")
    if fail:
        sidecar.mkdir()
    write_pairs([_pair("one"), _pair("three" if fail else "two")], path, sidecar)


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


@pytest.mark.parametrize("write", [_checkpoint, _vocab, _pairs_tsv, _mined_tsv,
                                   _mined_sidecar, _mined_sidecar_directory])
def test_failed_write_keeps_previous_file(write, tmp_path):
    path = tmp_path / "out"
    write(path, fail=False)
    before = _files(tmp_path)  # a mined TSV and its sidecar both
    with pytest.raises((TypeError, ValueError, AttributeError, IsADirectoryError)):
        write(path, fail=True)
    assert _files(tmp_path) == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("text", ["a\tb", "a\nb"])
def test_pair_writers_reject_a_tab_or_lf_in_a_text(text, tmp_path):
    """Such a line would not read back as one pair; a CR stays allowed."""
    save_pairs_tsv([("x\ry", "z")], tmp_path / "pairs.tsv")
    write_pairs([_pair("x\ry")], tmp_path / "mined.tsv", tmp_path / "mined.tsv.jsonl")
    before = _files(tmp_path)
    with pytest.raises(ValidationError, match="pair 1: a text holds a TAB or an LF"):
        save_pairs_tsv([("x", "y"), ("z", text)], tmp_path / "pairs.tsv")
    with pytest.raises(ValidationError, match="pair 1: a text holds a TAB or an LF"):
        write_pairs([_pair("x"), _pair(text)], tmp_path / "mined.tsv",
                    tmp_path / "mined.tsv.jsonl")
    assert _files(tmp_path) == before
