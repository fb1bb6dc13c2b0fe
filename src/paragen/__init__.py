"""paragen: paraphrase mining and pointer-style sequence-to-sequence learning.

Pure-numpy implementation with hand-written forward and backward passes,
built so every gradient is checkable against finite differences and every
retrieval result against brute force.
"""

from . import autograd
from .autograd import Tensor, backward
from .decoding import BeamConfig, beam_decode, greedy_decode, render, score_sequence
from .errors import DimensionError, NumericalError, ValidationError
from .gradcheck import grad_check
from .metrics import BleuReport, bleu, token_accuracy
from .miner import (Document, InvertedIndex, MineConfig, SentencePair, SentenceRecord,
                    align, build_index, ingest, query_similar, segment)
from .model import (EncoderStates, ModelDims, ModelParams, ParamGroup, encode, parameter_layout,
                    prepare_source, source_backward)
from .pointer import (StepOutputs, copy_distribution, mix, output_backward, output_forward,
                      recur_backward, recur_forced, recur_forward, recur_grads, step_forward,
                      vocab_forward)
from .training import (Adam, TrainConfig, TrainReport, clip_gradients, load_checkpoint,
                       load_pairs_tsv, save_checkpoint, save_pairs_tsv, sequence_loss,
                       train)
from .vocab import (BOS, EOS, PAD, UNK, ExtendedVocab, Vocabulary, build_vocab, encode_target,
                    tokenize)

__version__ = "0.1.0"
