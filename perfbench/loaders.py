"""Set-up of each workload: the program's own loaders, nothing else.

This module imports nothing at load time, so a set-up probe can start its
clock before ``import paragen`` and count that import too (numpy included).
Every call goes through a module attribute, so the traced run sees it.
"""

MINE_DOCS = "docs"
PAIRS_TSV = "pairs.tsv"
CHECKPOINT = "model.ckpt"
VOCAB = "model.ckpt.vocab"


def load_mine(pg, workdir, vocab_size):
    return {"docs": pg.miner.load_documents(f"{workdir}/{MINE_DOCS}")}


def load_train(pg, workdir, vocab_size):
    pairs = pg.training.load_pairs_tsv(f"{workdir}/{PAIRS_TSV}")
    tokenize = pg.vocab.tokenize
    corpus = [tokenize(x) for x, _ in pairs] + [tokenize(y) for _, y in pairs]
    vocab = pg.vocab.build_vocab(corpus, max_size=vocab_size)
    return {"pairs": pairs, "vocab": vocab}


def load_generate(pg, workdir, vocab_size):
    vocab = pg.vocab.Vocabulary.load(f"{workdir}/{VOCAB}")
    params, _ = pg.training.load_checkpoint(f"{workdir}/{CHECKPOINT}", expected_vocab=vocab)
    return {"vocab": vocab, "params": params}


# workload -> (loader, fixed vocabulary size it builds, if any)
SETUP = {
    "mine-zipf": (load_mine, None),
    "train-copy-v54": (load_train, 54),
    "train-v10k": (load_train, 10000),
    "generate-beam4-v10k": (load_generate, None),
}
