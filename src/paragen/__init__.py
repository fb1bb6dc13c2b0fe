"""paragen: paraphrase mining and pointer-style sequence-to-sequence learning.

Pure-numpy implementation with reverse-mode autodiff, built so every
gradient is checkable against finite differences and every retrieval result
against brute force.
"""

from . import autograd
from .autograd import Tensor, backward
from .decoding import BeamConfig, beam_decode, greedy_decode, render, score_sequence
from .errors import DimensionError, NumericalError, ValidationError
from .gradcheck import grad_check
from .metrics import BleuReport, bleu, token_accuracy
from .miner import (Document, InvertedIndex, MineConfig, SentencePair, SentenceRecord,
                    align, build_index, ingest, query_similar, segment)
from .model import EncoderStates, ModelDims, ModelParams, ParamGroup, encode, parameter_layout
from .pointer import (StepOutputs, copy_distribution, mix, output_backward, output_forward,
                      prepare_source, recur_backward, recur_forward, step_forward,
                      teacher_forced, teacher_forced_backward)
from .training import (Adam, TrainConfig, TrainReport, clip_gradients, load_checkpoint,
                       load_pairs_tsv, save_checkpoint, save_pairs_tsv, sequence_loss,
                       train)
from .vocab import (BOS, EOS, PAD, UNK, ExtendedVocab, Vocabulary, build_vocab, decode_ids,
                    encode_source, encode_target, tokenize)

__version__ = "0.1.0"
