"""Synthetic TIDIGITS-like connected-digit speech corpus.

TIDIGITS (Leonard & Doddington, 1993) contains utterances of connected
digit strings ("oh" + 0-9) used for speaker-independent recognition.  The
corpus is license-gated, so we synthesise an equivalent: each digit has a
characteristic formant template (a fixed pattern over the feature
dimension), an utterance renders its digits as consecutive frame spans with
speaker-dependent amplitude/duration jitter plus noise, and the
many-to-one task is to classify the utterance's *final* digit — exactly
the (T, B, features) → (B,) code path the paper's speech experiments
exercise, with variable sequence lengths across utterances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: digit classes: "oh" plus 0-9 (TIDIGITS vocabulary)
NUM_DIGITS = 11


@dataclass(frozen=True)
class TidigitsConfig:
    """Shape and noise parameters of the synthetic corpus."""

    num_features: int = 39  # MFCC-like: 13 coefficients + deltas + delta-deltas
    min_digits: int = 1
    max_digits: int = 7
    frames_per_digit_min: int = 8
    frames_per_digit_max: int = 14
    noise_std: float = 0.35
    speaker_jitter: float = 0.15


class SyntheticTidigits:
    """Deterministic synthetic connected-digit utterance generator."""

    def __init__(self, config: TidigitsConfig = TidigitsConfig(), seed: int = 0):
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)
        # One formant-like template per digit: smooth bumps over the feature
        # axis at digit-specific positions.
        feat = np.arange(config.num_features, dtype=np.float64)
        templates = []
        for digit in range(NUM_DIGITS):
            centers = rng.uniform(0, config.num_features, size=3)
            widths = rng.uniform(2.0, 6.0, size=3)
            heights = rng.uniform(0.8, 1.6, size=3) * (1 + 0.1 * digit)
            tpl = sum(
                h * np.exp(-0.5 * ((feat - c) / w) ** 2)
                for c, w, h in zip(centers, widths, heights)
            )
            templates.append(tpl)
        self._templates = np.asarray(templates, dtype=np.float32)

    @property
    def num_classes(self) -> int:
        return NUM_DIGITS

    @property
    def num_features(self) -> int:
        return self.config.num_features

    def utterance(self, rng: np.random.Generator) -> Tuple[np.ndarray, int]:
        """One utterance: frames ``(T, num_features)`` and its label.

        The label is the final digit spoken, so the classifier benefits from
        both directions: the reverse RNN sees the informative frames first,
        the forward RNN must carry context across the whole utterance.
        """
        cfg = self.config
        n_digits = int(rng.integers(cfg.min_digits, cfg.max_digits + 1))
        digits = rng.integers(0, NUM_DIGITS, size=n_digits)
        amp = 1.0 + cfg.speaker_jitter * rng.standard_normal()
        spans = []
        for digit in digits:
            frames = int(
                rng.integers(cfg.frames_per_digit_min, cfg.frames_per_digit_max + 1)
            )
            # Attack/decay envelope over the digit's frames.
            env = np.hanning(frames + 2)[1:-1].astype(np.float32)
            span = amp * env[:, None] * self._templates[digit][None, :]
            spans.append(span)
        x = np.concatenate(spans, axis=0)
        x = x + cfg.noise_std * rng.standard_normal(x.shape).astype(np.float32)
        return x.astype(np.float32), int(digits[-1])

    def generate(self, n: int, seed: int = 1) -> Tuple[List[np.ndarray], np.ndarray]:
        """``n`` utterances (variable length) and their labels."""
        rng = np.random.default_rng((self.seed, seed))
        xs, ys = [], []
        for _ in range(n):
            x, y = self.utterance(rng)
            xs.append(x)
            ys.append(y)
        return xs, np.asarray(ys, dtype=np.int64)
