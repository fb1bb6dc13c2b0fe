"""Every file writer replaces its target atomically: a write that fails
partway leaves the previous file intact and no temporary file behind."""

import numpy as np
import pytest

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
    write_pairs([_pair("one"), None if fail else _pair("two")], path)


def _mined_sidecar(path, fail):
    # the TSV has no float to format; the sidecar's JSON fails on the second record
    write_pairs([_pair("one"), _pair("two", object() if fail else 0.6)],
                str(path) + ".tsv", path)


@pytest.mark.parametrize("write", [_checkpoint, _vocab, _pairs_tsv, _mined_tsv,
                                   _mined_sidecar])
def test_failed_write_keeps_previous_file(write, tmp_path):
    path = tmp_path / "out"
    write(path, fail=False)
    before = path.read_bytes()
    with pytest.raises((TypeError, ValueError, AttributeError)):
        write(path, fail=True)
    assert path.read_bytes() == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
