"""Deterministic spatial-audio toolkit.

Simulates shoebox-room scenes for a compact tetrahedral array, turns
multichannel audio into bounded pairwise spatial features on overlapping
musical-scale subbands, encodes direction clues as spherical-harmonic
embeddings, fuses the two with a verified modulation block, and evaluates
steered extraction with SNR-family and spatial-cue metrics.
"""

__version__ = "0.1.0"
