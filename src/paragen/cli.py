"""Command-line pipeline: mine -> train -> generate -> eval.

Exit codes: 0 success, 2 input or validation failure, 3 numerical failure,
1 anything unexpected. Flags override config-file values, which override the
built-in defaults; the effective configuration is echoed with --verbose.
"""

import argparse
import json
import logging
import sys
from dataclasses import MISSING, fields

from .decoding import BeamConfig, beam_decode
from .errors import NumericalError, ValidationError
from .fileio import atomic_write, read_lines
from .metrics import bleu, token_hits
from .miner import (DEFAULT_ABBREVIATIONS, MineConfig, align, load_abbreviations,
                    load_documents, write_pairs)
from .training import (VOCAB_SUFFIX, CheckpointError, EmptyPairError, TrainConfig,
                       load_checkpoint, load_pairs_tsv, train)
from .vocab import Vocabulary, tokenize


def _field_defaults(config, drop=(), **renamed):
    """Key -> default for each field of ``config`` that has one; a key is the
    field's name unless ``renamed`` maps that name to another."""
    return {renamed.get(f.name, f.name): f.default for f in fields(config)
            if f.default is not MISSING and f.name not in drop}


SEED = 0
MINE_DEFAULTS = {**_field_defaults(MineConfig, drop=("abbreviations",)),
                 "stoplist": None, "seed": SEED}
TRAIN_DEFAULTS = {**_field_defaults(TrainConfig), "seed": SEED}
GENERATE_DEFAULTS = {**_field_defaults(BeamConfig, beam_width="beam"),
                     "greedy": False, "plain": False, "force_p_gen": None, "seed": SEED}
EVAL_DEFAULTS = {"smooth": False, "seed": SEED}
COMMAND_DEFAULTS = {"mine": MINE_DEFAULTS, "train": TRAIN_DEFAULTS,
                    "generate": GENERATE_DEFAULTS, "eval": EVAL_DEFAULTS}
# value type of the keys whose default is None; every other key takes its default's type
NONE_DEFAULT_TYPES = {"stoplist": str, "force_p_gen": float}


def _options(parser, defaults, **helps):
    """A --flag for each key of ``helps``, typed and documented from its
    default: a False default makes a switch, a None default means off."""
    for key, help in helps.items():
        default = defaults[key]
        kind = ({"action": "store_true"} if default is False
                else {"type": NONE_DEFAULT_TYPES.get(key, type(default))})
        shown = "off" if default is False or default is None else default
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                            help=f"{help} (default: {shown})", **kind)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="paragen",
        description="Mine aligned paraphrase pairs and train a copy-capable "
                    "sequence-to-sequence paraphraser.")
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags given explicitly win (default: none)")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"seed for anything stochastic (default: {SEED})")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress and echo the effective config (default: off)")
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine aligned sentence pairs from documents")
    mine.add_argument("--docs", required=True, help="directory of JSON document files")
    mine.add_argument("--out", required=True, help="output TSV path (sidecar: <out>.jsonl)")
    _options(mine, MINE_DEFAULTS, k="neighbours per sentence",
             min_sim="similarity band lower bound", max_sim="similarity band upper bound",
             min_tokens="shortest sentence kept", max_tokens="longest sentence kept",
             stoplist="file of abbreviations that never end a sentence; off means the "
                      "built-in list")
    mine.set_defaults(func=cmd_mine)

    tr = sub.add_parser("train", help="train a model on a pair-per-line TSV")
    tr.add_argument("--data", required=True, help="training TSV (source TAB target)")
    tr.add_argument("--out", required=True,
                    help="checkpoint path (vocab: <out>.vocab, log: <out>.log)")
    tr.add_argument("--vocab", default=None,
                    help="load a fixed vocabulary file instead of building one")
    _options(tr, TRAIN_DEFAULTS, epochs="training epochs",
             lr="Adam learning rate, per update: scale it with the batch size",
             clip="global gradient-norm clip",
             vocab_size="max vocabulary size including reserved ids",
             min_count="min token frequency for the vocabulary",
             d_emb="embedding width", d_h="encoder width per direction",
             d_s="decoder state width", d_a="attention width",
             max_source_len="source truncation length",
             max_target_len="target truncation length",
             checkpoint_interval="epochs between checkpoints",
             batch_size="sentence pairs per optimizer update; B pairs take B times fewer "
                        "updates per epoch")
    tr.set_defaults(func=cmd_train)

    gen = sub.add_parser("generate", help="decode paraphrases for a file of sentences")
    gen.add_argument("--checkpoint", required=True, help="trained checkpoint path")
    gen.add_argument("--vocab", default=None,
                     help="vocabulary file (default: <checkpoint>.vocab)")
    gen.add_argument("--input", required=True, help="file with one source sentence per line")
    gen.add_argument("--out", required=True, help="output TSV of rank, score, hypothesis")
    _options(gen, GENERATE_DEFAULTS, beam="beam width",
             greedy="greedy decoding, same as --beam 1", max_len="max decode length",
             length_norm="length normalization exponent in [0,1]",
             plain="write only the best hypothesis text per line",
             force_p_gen="override the copy gate at inference, for ablations")
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("eval", help="BLEU of a hypothesis file against a reference file")
    ev.add_argument("--hyp", required=True, help="hypothesis sentences, one per line")
    ev.add_argument("--ref", required=True, help="reference sentences, one per line")
    _options(ev, EVAL_DEFAULTS, smooth="add-one smoothing of n-gram precisions")
    ev.set_defaults(func=cmd_eval)
    return parser


def _check_type(path, key, value, default):
    """Reject a config-file value of the wrong type; an int may stand for a float."""
    if value is None and default is None:
        return
    want = NONE_DEFAULT_TYPES.get(key, type(default))
    allowed = (int, float) if want is float else want
    if not isinstance(value, allowed) or (isinstance(value, bool) and want is not bool):
        raise ValidationError(f"{path}: {key} must be {want.__name__}, got {json.dumps(value)}")


def _effective(args):
    """defaults < config file section < explicitly passed flags."""
    defaults = COMMAND_DEFAULTS[args.command]
    merged = dict(defaults)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValidationError(f"{args.config}: config root must be a JSON object")
        flat = args.command not in raw
        section = raw if flat else raw[args.command]
        if not isinstance(section, dict):
            raise ValidationError(f"{args.config}: {args.command} must be a JSON object")
        # a flat root may also hold other commands' sections and keys
        shared = set(COMMAND_DEFAULTS).union(*COMMAND_DEFAULTS.values()) if flat else ()
        for key, value in section.items():
            if key in merged:
                _check_type(args.config, key, value, defaults[key])
                merged[key] = value
            elif key not in shared:
                raise ValidationError(f"{args.config}: unknown {args.command} key {key!r}")
    merged.update({k: v for k, v in vars(args).items() if k in merged})
    if args.verbose:
        print("config: " + json.dumps({"command": args.command, **merged}, sort_keys=True),
              file=sys.stderr)
    return merged


def _build(config, values, **given):
    """``config`` from the effective values of its fields, plus ``given``."""
    return config(**{f.name: values[f.name] for f in fields(config) if f.name not in given},
                  **given)


def cmd_mine(args):
    cfg_map = _effective(args)
    abbrev = (load_abbreviations(cfg_map["stoplist"]) if cfg_map["stoplist"]
              else DEFAULT_ABBREVIATIONS)
    cfg = _build(MineConfig, cfg_map, abbreviations=abbrev)
    docs = load_documents(args.docs)
    pairs = align(docs, cfg)
    write_pairs(pairs, args.out, args.out + ".jsonl")
    print(f"{len(pairs)} pairs")
    return 0


def cmd_train(args):
    cfg = _build(TrainConfig, _effective(args))
    pairs = load_pairs_tsv(args.data)
    vocab = Vocabulary.load(args.vocab) if args.vocab else None  # else train() builds it
    try:
        _, report = train(pairs, cfg, vocab=vocab,
                          checkpoint_path=args.out, log_path=args.out + ".log")
    except EmptyPairError as exc:  # pair i is line i + 1 of the TSV
        raise ValidationError(f"{args.data}: line {exc.index + 1}: "
                              "empty source or target after tokenization") from exc
    print(f"trained {cfg.epochs} epochs, final mean NLL {report.final_nll:.6f}")
    return 0


def cmd_generate(args):
    cfg_map = _effective(args)
    force = cfg_map["force_p_gen"]
    if force is not None and not 0.0 <= force <= 1.0:
        raise ValidationError(f"--force-p-gen {force} outside [0, 1]")
    vocab = Vocabulary.load(args.vocab or args.checkpoint + VOCAB_SUFFIX)
    params, _ = load_checkpoint(args.checkpoint, expected_vocab=vocab)
    width = 1 if cfg_map["greedy"] else cfg_map["beam"]
    cfg = _build(BeamConfig, cfg_map, beam_width=width)
    sources = [line for line in read_lines(args.input) if line.strip()]
    with atomic_write(args.out) as fh:
        for source in sources:
            hyps = beam_decode(source, params, vocab, cfg, force_p_gen=force)
            if cfg_map["plain"]:
                best = hyps[0] if hyps else None
                fh.write((" ".join(best.surface) if best else "") + "\n")
            else:
                for rank, hyp in enumerate(hyps[:width], start=1):
                    fh.write(f"{rank}\t{hyp.log_prob!r}\t{' '.join(hyp.surface)}\n")
    print(f"decoded {len(sources)} sentences")
    return 0


def cmd_eval(args):
    cfg_map = _effective(args)
    hyps = [tokenize(line) for line in read_lines(args.hyp)]
    refs = [tokenize(line) for line in read_lines(args.ref)]
    report = bleu(hyps, refs, smooth=cfg_map["smooth"])
    hits = sum(token_hits(h, r) for h, r in zip(hyps, refs))
    total = sum(len(r) for r in refs)
    out = report.as_dict()
    out["token_accuracy"] = hits / max(total, 1)
    print(json.dumps(out))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValidationError, CheckpointError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
