"""Deterministic spatial-audio toolkit.

Simulates shoebox-room scenes for a compact tetrahedral array, turns
multichannel audio into bounded pairwise spatial features on overlapping
musical-scale subbands, encodes direction clues as spherical-harmonic
embeddings, fuses the two with a verified modulation block, and evaluates
steered extraction with SNR-family and spatial-cue metrics.
"""

from .audio_io import MultichannelWaveform, WavFormatError, read_wav, write_wav
from .clues import (
    DoAClue,
    assoc_legendre,
    build_time_varying_clue,
    encode_cyc_pos,
    encode_sh,
    sh_complex,
)
from .extractor import contour_grid, delay_and_sum, steering_delays
from .fusion import (
    BandFusionWeights,
    EncoderWeights,
    FusedFeature,
    FusionWeights,
    encode_band_feature,
    film_fuse,
    film_gradients,
    finite_difference_check,
    fuse_all_bands,
    init_fusion_weights,
)
from .metrics import (
    MetricsReport,
    evaluate_extraction,
    gcc_phat_itd,
    si_snr,
    si_snr_i,
    snr,
    snr_i,
    spatial_errors,
    write_reports_csv,
)
from .roomsim import (
    RoomImpulseResponse,
    SceneTruth,
    SimulationError,
    frame_activation,
    ground_truth_doa,
    render_scene,
    render_scene_to_dir,
    sabine_absorption,
    schroeder_rt60,
    simulate_rir,
)
from .scenes import (
    SceneSpec,
    SceneValidationError,
    SourceSpec,
    NoiseSpec,
    read_manifest,
    scene_from_dict,
    tetrahedral_offsets,
)
from .spectral import (
    BandLayout,
    ComplexSpectrogram,
    GaussianWindowParams,
    WindowEnergyError,
    istft,
    make_band_layout,
    make_gaussian_window,
    merge_bands,
    split_bands,
    stft,
)
from .spin import SpinFeature, log_magnitude, normalize_planes, recover_ipd, spin_forward

__version__ = "0.1.0"
