import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import paragen
from paragen.cli import main
from paragen.decoding import BeamConfig
from paragen.errors import ValidationError
from paragen.miner import MineConfig
from paragen.model import ModelParams
from paragen.training import TrainConfig, save_checkpoint
from paragen.vocab import Vocabulary, tokenize

from conftest import copy_task_corpus, three_source_docs, tiny_model, write_doc_fixture


def run_cli(*argv):
    return main(list(argv))


def test_mine_fixture_succeeds(tmp_path, three_source_docs, capsys):
    doc_dir = write_doc_fixture(tmp_path, three_source_docs)
    out = tmp_path / "pairs.tsv"
    code = run_cli("mine", "--docs", str(doc_dir), "--out", str(out), "--min-sim", "0.3")
    assert code == 0
    assert out.exists() and (tmp_path / "pairs.tsv.jsonl").exists()
    assert "pairs" in capsys.readouterr().out


def test_mine_deterministic_bytes(tmp_path, three_source_docs):
    doc_dir = write_doc_fixture(tmp_path, three_source_docs)
    out1 = tmp_path / "a.tsv"
    out2 = tmp_path / "b.tsv"
    assert run_cli("mine", "--docs", str(doc_dir), "--out", str(out1), "--min-sim", "0.3") == 0
    assert run_cli("mine", "--docs", str(doc_dir), "--out", str(out2), "--min-sim", "0.3") == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_mine_single_source_exit_2(tmp_path, three_source_docs, capsys):
    docs = [d for d in three_source_docs if d.source == "siteA"]
    doc_dir = write_doc_fixture(tmp_path, docs)
    code = run_cli("mine", "--docs", str(doc_dir), "--out", str(tmp_path / "x.tsv"))
    assert code == 2
    assert "source" in capsys.readouterr().err


def _write_pairs_tsv(tmp_path, n=12):
    pairs, _ = copy_task_corpus(n, seed=0, min_len=3, max_len=5)
    data = tmp_path / "train.tsv"
    data.write_text("".join(f"{x}\t{y}\n" for x, y in pairs), encoding="utf-8")
    return data, pairs


def test_train_generate_eval_pipeline(tmp_path, capsys):
    data, pairs = _write_pairs_tsv(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    code = run_cli("--seed", "1", "train", "--data", str(data), "--out", str(ckpt),
                   "--epochs", "2", "--vocab-size", "60",
                   "--d-emb", "8", "--d-h", "8", "--d-s", "8", "--d-a", "8")
    assert code == 0
    assert ckpt.exists() and (tmp_path / "model.ckpt.vocab").exists()
    assert (tmp_path / "model.ckpt.log").exists()

    src = tmp_path / "input.txt"
    src.write_text("".join(x + "\n" for x, _ in pairs[:3]), encoding="utf-8")
    hyp = tmp_path / "hyps.txt"
    code = run_cli("generate", "--checkpoint", str(ckpt), "--input", str(src),
                   "--out", str(hyp), "--greedy", "--plain")
    assert code == 0
    assert len(hyp.read_text().splitlines()) == 3

    ref = tmp_path / "refs.txt"
    ref.write_text("".join(x + "\n" for x, _ in pairs[:3]), encoding="utf-8")
    code = run_cli("eval", "--hyp", str(hyp), "--ref", str(ref))
    assert code == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(report) >= {"bleu", "precisions", "brevity_penalty", "token_accuracy"}
    assert 0.0 <= report["token_accuracy"] <= 1.0


def test_eval_identity_token_accuracy(tmp_path, capsys):
    text = "the river flooded the town\nresidents moved to higher ground\n"
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text(text, encoding="utf-8")
    ref.write_text(text, encoding="utf-8")
    assert run_cli("eval", "--hyp", str(hyp), "--ref", str(ref)) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["bleu"] == 1.0
    assert report["token_accuracy"] == 1.0


def test_full_copy_pipeline_reaches_high_token_accuracy(tmp_path, capsys):
    pairs, _ = copy_task_corpus(80, seed=5, min_len=3, max_len=5)
    data = tmp_path / "train.tsv"
    data.write_text("".join(f"{x}\t{y}\n" for x, y in pairs[:70]), encoding="utf-8")
    ckpt = tmp_path / "model.ckpt"
    # --lr scaled with the default batch of 8 pairs, which takes 8x fewer updates
    assert run_cli("--seed", "1", "train", "--data", str(data), "--out", str(ckpt),
                   "--epochs", "14", "--lr", "8e-3", "--vocab-size", "54", "--d-emb", "16",
                   "--d-h", "16", "--d-s", "16", "--d-a", "16") == 0

    src = tmp_path / "in.txt"
    ref = tmp_path / "ref.txt"
    src.write_text("".join(x + "\n" for x, _ in pairs[70:]), encoding="utf-8")
    ref.write_text("".join(y + "\n" for _, y in pairs[70:]), encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    assert run_cli("generate", "--checkpoint", str(ckpt), "--input", str(src),
                   "--out", str(hyp), "--greedy", "--plain") == 0
    assert run_cli("eval", "--hyp", str(hyp), "--ref", str(ref)) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["token_accuracy"] >= 0.9, report


def test_generate_greedy_equals_beam_one(tmp_path):
    data, pairs = _write_pairs_tsv(tmp_path, n=8)
    ckpt = tmp_path / "model.ckpt"
    run_cli("train", "--data", str(data), "--out", str(ckpt), "--epochs", "1",
            "--vocab-size", "60", "--d-emb", "8", "--d-h", "8", "--d-s", "8", "--d-a", "8")
    src = tmp_path / "input.txt"
    src.write_text("".join(x + "\n" for x, _ in pairs[:4]), encoding="utf-8")
    out_greedy = tmp_path / "g.tsv"
    out_beam = tmp_path / "b.tsv"
    assert run_cli("generate", "--checkpoint", str(ckpt), "--input", str(src),
                   "--out", str(out_greedy), "--greedy") == 0
    assert run_cli("generate", "--checkpoint", str(ckpt), "--input", str(src),
                   "--out", str(out_beam), "--beam", "1") == 0
    assert out_greedy.read_bytes() == out_beam.read_bytes()


def test_train_lr_zero_runs_and_generates(tmp_path):
    data, pairs = _write_pairs_tsv(tmp_path, n=6)
    ckpt = tmp_path / "null.ckpt"
    assert run_cli("train", "--data", str(data), "--out", str(ckpt), "--epochs", "1",
                   "--lr", "0", "--vocab-size", "60",
                   "--d-emb", "8", "--d-h", "8", "--d-s", "8", "--d-a", "8") == 0
    src = tmp_path / "in.txt"
    src.write_text(pairs[0][0] + "\n", encoding="utf-8")
    assert run_cli("generate", "--checkpoint", str(ckpt), "--input", str(src),
                   "--out", str(tmp_path / "o.tsv")) == 0


def test_missing_data_file_exit_2(tmp_path, capsys):
    code = run_cli("train", "--data", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "m.ckpt"))
    assert code == 2


def test_malformed_tsv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("no tab here\n", encoding="utf-8")
    code = run_cli("train", "--data", str(bad), "--out", str(tmp_path / "m.ckpt"))
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_unknown_flag_is_error():
    assert run_cli("mine", "--docs", "x", "--out", "y", "--definitely-not-a-flag") == 2


def test_train_rejects_threads_flag(tmp_path):
    assert run_cli("train", "--data", "x", "--out", "y", "--threads", "2") == 2


def test_eval_rejects_threads_flag(tmp_path):
    assert run_cli("eval", "--hyp", "x", "--ref", "y", "--threads", "2") == 2


def test_mine_rejects_threads_flag(tmp_path, three_source_docs):
    doc_dir = write_doc_fixture(tmp_path, three_source_docs)
    out = tmp_path / "pairs.tsv"
    assert run_cli("mine", "--docs", str(doc_dir), "--out", str(out),
                   "--min-sim", "0.3", "--threads", "2") == 2
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["mine", "train", "generate", "eval"])
def test_help_lists_defaults(cmd, capsys):
    code = run_cli(cmd, "--help")
    assert code == 0
    text = capsys.readouterr().out
    assert "default" in text


def test_config_file_and_flag_override(tmp_path, three_source_docs, capsys):
    doc_dir = write_doc_fixture(tmp_path, three_source_docs)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mine": {"min_sim": 0.3, "k": 2}}), encoding="utf-8")
    out = tmp_path / "pairs.tsv"
    code = run_cli("--config", str(cfg), "--verbose", "mine",
                   "--docs", str(doc_dir), "--out", str(out))
    assert code == 0
    echoed = capsys.readouterr().err
    assert '"min_sim": 0.3' in echoed and '"k": 2' in echoed

    # explicit flag beats the config file
    code = run_cli("--config", str(cfg), "--verbose", "mine",
                   "--docs", str(doc_dir), "--out", str(out), "--k", "5")
    echoed = capsys.readouterr().err
    assert code == 0
    assert '"k": 5' in echoed


# (subcommand, arguments it requires, config dataclass, field -> flag and config key)
CONFIG_BACKED = [
    ("mine", ["--docs", "d", "--out", "o"], MineConfig, {}),
    ("train", ["--data", "d", "--out", "o"], TrainConfig, {}),
    ("generate", ["--checkpoint", "c", "--input", "i", "--out", "o"], BeamConfig,
     {"beam_width": "beam"}),
]
CONFIG_FLAGS = [(cmd, required, f, renamed.get(f.name, f.name))
                for cmd, required, config, renamed in CONFIG_BACKED
                for f in dataclasses.fields(config)
                if f.default is not dataclasses.MISSING and f.name != "abbreviations"]


@pytest.mark.parametrize("cmd,required,field,key", CONFIG_FLAGS,
                         ids=[f"{c[0]}-{c[3]}" for c in CONFIG_FLAGS])
def test_flag_defaults_come_from_config_dataclass(cmd, required, field, key, tmp_path,
                                                  capsys):
    assert type(field.default) is field.type  # the CLI types a key by its default
    assert run_cli(cmd, "--help") == 0
    help_text = " ".join(capsys.readouterr().out.split())
    flag = "--" + key.replace("_", "-")
    entry = re.search(rf"{flag} {key.upper()} [^()]*\(default: ([^)]*)\)", help_text)
    assert entry and entry.group(1) == str(field.default), help_text

    # the echo comes before any input is read, so the missing files only end the run
    run_cli("--verbose", cmd, *[str(tmp_path / a) if not a.startswith("--") else a
                                for a in required])
    echoed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("config: ")]
    assert json.loads(echoed[0][len("config: "):])[key] == field.default


@pytest.mark.parametrize("section,expected", [
    ({"mine": {"k": "3"}}, "k"),
    ({"mine": {"min_sim": True}}, "min_sim"),
    ({"mine": {"max_tokens": 1.5}}, "max_tokens"),
    ({"mine": {"stoplist": 7}}, "stoplist"),
    ({"train": {"epochs": "2"}}, "epochs"),
    ({"train": {"d_h": True}}, "d_h"),
    ({"generate": {"greedy": "yes"}}, "greedy"),
    ({"mine": 5}, "mine"),
    ({"train": {"batch_size": "8"}}, "batch_size"),
])
def test_config_file_value_of_wrong_type_exit_2(section, expected, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section), encoding="utf-8")
    cmd = next(iter(section))
    required = {c: r for c, r, _, _ in CONFIG_BACKED}[cmd]
    assert run_cli("--config", str(cfg), cmd, *required) == 2
    assert f"{expected} must be" in capsys.readouterr().err


@pytest.mark.parametrize("config,cmd,key", [
    ({"mine": {"min_sim": 0.3, "mn_sim": 0.1}}, "mine", "mn_sim"),
    ({"mine": {"k": 2, "train": {"epochs": 1}}}, "mine", "train"),
    ({"train": {"d_h": 4, "min_sim": 0.3}}, "train", "min_sim"),
    ({"k": 2, "epochs": 1, "no_such_key": 1}, "mine", "no_such_key"),
    ({"mine": {"threads": 1.5}}, "mine", "threads"),
])
def test_config_file_unknown_key_exit_2(config, cmd, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    required = {c: r for c, r, _, _ in CONFIG_BACKED}[cmd]
    assert run_cli("--config", str(cfg), cmd, *required) == 2
    err = capsys.readouterr().err
    assert f"unknown {cmd} key {key!r}" in err


def test_flat_config_accepts_other_commands_keys_and_sections(tmp_path, three_source_docs,
                                                              capsys):
    doc_dir = write_doc_fixture(tmp_path, three_source_docs)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"min_sim": 0.3, "epochs": 2, "beam": 3, "smooth": True,
                               "train": {"epochs": 1}}), encoding="utf-8")
    assert run_cli("--config", str(cfg), "--verbose", "mine", "--docs", str(doc_dir),
                   "--out", str(tmp_path / "p.tsv")) == 0
    assert '"min_sim": 0.3' in capsys.readouterr().err


def test_config_file_int_accepted_for_float(tmp_path, three_source_docs, capsys):
    doc_dir = write_doc_fixture(tmp_path, three_source_docs)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mine": {"max_sim": 1, "min_sim": 0}}), encoding="utf-8")
    assert run_cli("--config", str(cfg), "--verbose", "mine", "--docs", str(doc_dir),
                   "--out", str(tmp_path / "p.tsv")) == 0
    assert '"max_sim": 1,' in capsys.readouterr().err


def test_generate_missing_checkpoint_exit_2(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("hello there\n", encoding="utf-8")
    assert run_cli("generate", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--input", str(src), "--out", str(tmp_path / "o.tsv")) == 2


def _tiny_checkpoint(tmp_path):
    """An untrained model's checkpoint and vocabulary, and a two-line input file."""
    params, vocab = tiny_model(seed=0)
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(params, ckpt, vocab)
    vocab.save(str(ckpt) + ".vocab")
    src = tmp_path / "in.txt"
    src.write_text("alpha beta\ngamma zyxxy delta\n", encoding="utf-8")
    return ckpt, src


@pytest.mark.parametrize("command", ["train", "eval", "generate"])
def test_non_utf8_input_exit_2(command, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe alpha\tbeta\n")
    if command == "train":
        argv = ["train", "--data", str(bad), "--out", str(tmp_path / "m.ckpt")]
    elif command == "eval":
        ref = tmp_path / "ref.txt"
        ref.write_text("alpha beta\n", encoding="utf-8")
        argv = ["eval", "--hyp", str(bad), "--ref", str(ref)]
    else:
        ckpt, _ = _tiny_checkpoint(tmp_path)
        argv = ["generate", "--checkpoint", str(ckpt), "--input", str(bad),
                "--out", str(tmp_path / "h.tsv")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "utf-8" in err and "unexpected" not in err


def _generate(ckpt, src, out, *flags):
    return run_cli("generate", "--checkpoint", str(ckpt), "--input", str(src),
                   "--out", str(out), *flags)


def _assert_kept(out, before):
    """``out`` still holds ``before`` and no temporary file is left beside it."""
    assert out.read_bytes() == before
    assert not [p.name for p in out.parent.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("value", ["2.0", "-0.5", "nan"])
def test_generate_bad_force_p_gen_keeps_existing_output(value, tmp_path, monkeypatch, capsys):
    def no_load(*args, **kwargs):
        raise AssertionError("checkpoint loaded before --force-p-gen was checked")

    ckpt, src = _tiny_checkpoint(tmp_path)
    out = tmp_path / "h.tsv"
    assert _generate(ckpt, src, out) == 0
    before = out.read_bytes()
    monkeypatch.setattr("paragen.cli.load_checkpoint", no_load)
    assert _generate(ckpt, src, out, "--force-p-gen", value) == 2
    assert "force-p-gen" in capsys.readouterr().err
    _assert_kept(out, before)


def test_generate_failure_midway_keeps_existing_output(tmp_path, monkeypatch):
    from paragen.decoding import beam_decode

    ckpt, src = _tiny_checkpoint(tmp_path)
    out = tmp_path / "h.tsv"
    assert _generate(ckpt, src, out) == 0
    before = out.read_bytes()
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 2:
            raise ValidationError("decoding failed")
        return beam_decode(*args, **kwargs)

    monkeypatch.setattr("paragen.cli.beam_decode", fail_second)
    assert _generate(ckpt, src, out, "--beam", "2") == 2
    assert len(calls) == 2
    _assert_kept(out, before)


def test_train_batch_size_zero_exit_2_keeps_existing_outputs(tmp_path, capsys):
    data, _ = _write_pairs_tsv(tmp_path, n=4)
    ckpt = tmp_path / "m.ckpt"
    argv = ["train", "--data", str(data), "--out", str(ckpt), "--epochs", "1",
            "--vocab-size", "60", "--d-emb", "4", "--d-h", "4", "--d-s", "4", "--d-a", "4"]
    assert run_cli(*argv) == 0
    outputs = [ckpt, tmp_path / "m.ckpt.vocab", tmp_path / "m.ckpt.log"]
    before = [p.read_bytes() for p in outputs]
    capsys.readouterr()
    assert run_cli(*argv, "--batch-size", "0") == 2
    assert "batch_size" in capsys.readouterr().err
    for path, content in zip(outputs, before):
        _assert_kept(path, content)


def test_train_divergence_exit_3(tmp_path):
    """A learning rate large enough to make the weights overflow: the copy
    gate turns NaN and the run stops as a numerical failure, writing
    nothing: the checkpoint, vocabulary and log of an earlier run with the
    same --out, on other data, stay as they were. Run as a user runs it, in
    its own interpreter, where numpy's overflow warnings stay warnings (this
    suite makes them errors)."""
    data, _ = _write_pairs_tsv(tmp_path, n=4)
    ckpt = tmp_path / "m.ckpt"
    widths = ["--vocab-size", "60", "--d-emb", "4", "--d-h", "4", "--d-s", "4", "--d-a", "4"]
    assert run_cli("train", "--data", str(data), "--out", str(ckpt), "--epochs", "1",
                   *widths) == 0
    outputs = [ckpt, tmp_path / "m.ckpt.vocab", tmp_path / "m.ckpt.log"]
    before = [p.read_bytes() for p in outputs]
    data, _ = _write_pairs_tsv(tmp_path, n=12)  # more words, so another vocabulary
    src = str(Path(paragen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "paragen.cli", "train", "--data", str(data),
                          "--out", str(ckpt), "--epochs", "2", "--lr", "1e250", *widths,
                          "--batch-size", "4"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 3, run.stderr
    assert "numerical failure: mix: p_gen [nan" in run.stderr
    for path, content in zip(outputs, before):
        _assert_kept(path, content)


def test_train_empty_side_names_the_tsv_line(tmp_path, capsys):
    data = tmp_path / "train.tsv"
    data.write_text("a b\tc d\na b\t\ne f\tg\n", encoding="utf-8")
    assert run_cli("train", "--data", str(data), "--out", str(tmp_path / "m.ckpt")) == 2
    err = capsys.readouterr().err
    assert f"{data}: line 2: empty source or target after tokenization" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_mine_bytes_do_not_depend_on_blas_threads(tmp_path, three_source_docs):
    """``mine`` at OPENBLAS_NUM_THREADS 1 and 2, each in its own interpreter
    (the thread count is read when numpy loads): the same TSV and sidecar."""
    doc_dir = write_doc_fixture(tmp_path, three_source_docs)
    src = str(Path(paragen.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"pairs{threads}.tsv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "paragen.cli", "--seed", "1", "mine",
                              "--docs", str(doc_dir), "--out", str(out), "--min-sim", "0.3"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append((out.read_bytes(), Path(f"{out}.jsonl").read_bytes()))
    assert outputs[0][0] and outputs[0] == outputs[1]


def test_train_tokenizes_each_text_once(tmp_path, monkeypatch):
    """The vocabulary is counted from the token lists training runs on, so
    12 pairs make 24 ``tokenize`` calls, one per text."""
    data, _ = _write_pairs_tsv(tmp_path, n=12)
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr("paragen.training.tokenize", counting)
    assert run_cli("train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                   "--epochs", "1", "--vocab-size", "60", "--d-emb", "4", "--d-h", "4",
                   "--d-s", "4", "--d-a", "4") == 0
    assert len(calls) == 24


@pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"), ("--clip", "nan")])
def test_train_non_finite_lr_or_clip_exit_2_writes_nothing(tmp_path, capsys, flag, value):
    data, _ = _write_pairs_tsv(tmp_path, n=4)
    ckpt = tmp_path / "m.ckpt"
    assert run_cli("train", "--data", str(data), "--out", str(ckpt), "--epochs", "1",
                   "--vocab-size", "60", "--d-emb", "4", "--d-h", "4", "--d-s", "4",
                   "--d-a", "4", flag, value) == 2
    assert flag[2:] in capsys.readouterr().err
    for path in (ckpt, tmp_path / "m.ckpt.vocab", tmp_path / "m.ckpt.log"):
        assert not path.exists()


def test_train_on_reserved_token_strings(tmp_path):
    data = tmp_path / "ptb.tsv"
    data.write_text("the <unk> sat down\tthe <unk> sat\n<eos> <pad> went\t<bos> went\n",
                    encoding="utf-8")
    ckpt = tmp_path / "m.ckpt"
    assert run_cli("--seed", "1", "train", "--data", str(data), "--out", str(ckpt),
                   "--epochs", "1", "--d-emb", "4", "--d-h", "4", "--d-s", "4", "--d-a", "4") == 0
    assert "<unk>" not in (tmp_path / "m.ckpt.vocab").read_text(encoding="utf-8").split("\n")


def test_generate_non_finite_checkpoint_exit_2(tmp_path, capsys):
    ckpt, src = _tiny_checkpoint(tmp_path)
    out = tmp_path / "h.tsv"
    assert _generate(ckpt, src, out) == 0
    before = out.read_bytes()
    blob = bytearray(ckpt.read_bytes())
    blob[-8:] = struct.pack("<d", float("nan"))
    ckpt.write_bytes(bytes(blob))
    assert _generate(ckpt, src, out) == 2
    assert "non-finite" in capsys.readouterr().err
    _assert_kept(out, before)


def _rewrite_checkpoint(ckpt, vocab, **widths):
    """Overwrite ``ckpt`` with an untrained model of the tiny widths changed
    by ``widths``, its payload sized to match, under ``vocab``'s fingerprint."""
    params, _ = tiny_model(seed=0)
    save_checkpoint(ModelParams(dataclasses.replace(params.dims, **widths), seed=0), ckpt, vocab)


@pytest.mark.parametrize("width", ["d_h", "d_s", "d_a"])
def test_generate_zero_width_checkpoint_exit_2(width, tmp_path, capsys):
    ckpt, src = _tiny_checkpoint(tmp_path)
    out = tmp_path / "h.tsv"
    assert _generate(ckpt, src, out) == 0
    before = out.read_bytes()
    _rewrite_checkpoint(ckpt, Vocabulary.load(str(ckpt) + ".vocab"), **{width: 0})
    assert _generate(ckpt, src, out) == 2
    assert f"{width}=0" in capsys.readouterr().err
    _assert_kept(out, before)


@pytest.mark.parametrize("vocab_size", [5, 20])
def test_generate_checkpoint_vocab_size_mismatch_exit_2(vocab_size, tmp_path, capsys):
    # the header's fingerprint is the vocabulary file's, but its vocab_size is not its size
    ckpt, src = _tiny_checkpoint(tmp_path)
    out = tmp_path / "h.tsv"
    assert _generate(ckpt, src, out) == 0
    before = out.read_bytes()
    vocab = Vocabulary.load(str(ckpt) + ".vocab")
    assert vocab.size == 12
    _rewrite_checkpoint(ckpt, vocab, vocab_size=vocab_size)
    assert _generate(ckpt, src, out) == 2
    assert f"vocab_size={vocab_size}" in capsys.readouterr().err
    _assert_kept(out, before)


def test_text_inputs_split_on_lf_only(tmp_path, capsys):
    # "\x85" and "\u2028" are whitespace inside a line; CRLF line ends give the same tokens
    ckpt, _ = _tiny_checkpoint(tmp_path)
    src = tmp_path / "in.txt"
    src.write_bytes("alpha\x85beta\r\ngamma\u2028delta\r\n".encode("utf-8"))
    out = tmp_path / "h.txt"
    assert _generate(ckpt, src, out, "--greedy", "--plain") == 0
    assert len(out.read_text(encoding="utf-8").split("\n")) == 3  # two lines, final LF

    ref = tmp_path / "ref.txt"
    ref.write_text("alpha beta\ngamma delta\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", str(src), "--ref", str(ref)) == 0
    assert json.loads(capsys.readouterr().out)["token_accuracy"] == 1.0


def test_import_loads_no_web_stack():
    # every command pays for `import paragen`; nothing in it fetches from the web
    src = str(Path(paragen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import json, sys, paragen, paragen.cli; print(json.dumps(sorted("
             "{name.partition('.')[0] for name in sys.modules}"
             " & {'email', 'html', 'http', 'ssl'})))")
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []
