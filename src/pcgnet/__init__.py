"""Heart-sound classification with learnable FIR filter-bank front-ends."""

__version__ = "0.1.0"

from .dsp import Waveform, LtsaProfile, resample, ltsa, unwrap_phase
from .fir import FirFilter, FilterBank, design_bandpass, apply_fir, frequency_response, default_bank
from .autodiff import Tensor, backward, conv1d, causal_conv1d
from .frontend import TConvLayer, init_kernel
from .model import Network, NetworkConfig, build, aggregate_recording, save, load
from .data import CycleStore, synth_pcg, segment_cycles, make_folds, load_recording
from .training import TrainConfig, train_fold, evaluate, adam_step, class_weights_from, cross_fold_summary

__all__ = [
    "Waveform", "LtsaProfile", "resample", "ltsa", "unwrap_phase",
    "FirFilter", "FilterBank", "design_bandpass", "apply_fir",
    "frequency_response", "default_bank",
    "Tensor", "backward", "conv1d", "causal_conv1d",
    "TConvLayer", "init_kernel",
    "Network", "NetworkConfig", "build", "aggregate_recording", "save", "load",
    "CycleStore", "synth_pcg", "segment_cycles", "make_folds", "load_recording",
    "TrainConfig", "train_fold", "evaluate", "adam_step", "class_weights_from",
    "cross_fold_summary",
]
