"""Seeded ground-truth systems and their exact outputs.

The true impulse response is a sum of decaying exponentials, some of them
oscillating:

    g0(t) = Re sum_k c_k exp(-p_k t),   Re p_k > 0, c_k complex.

Its response to every input the CLI accepts (impulse, step, exponential
sum, zero-order hold) is computed here by closed-form convolution, so the
benchmark's reference never goes through ``dckernel``.  Noise is Gaussian
at a stated signal-to-noise ratio (SNR, in dB, of the noise-free samples'
mean square over the noise variance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrueSystem:
    """g0(t) = Re sum_k coeffs[k] * exp(-poles[k] * t)."""

    coeffs: np.ndarray
    poles: np.ndarray

    def impulse(self, t):
        t = np.asarray(t, dtype=float)
        terms = self.coeffs * np.exp(-np.multiply.outer(t, self.poles))
        return terms.sum(axis=-1).real

    def integral(self, x):
        """G(x) = integral of g0 over [0, x]; zero for x <= 0."""
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        terms = self.coeffs * -np.expm1(-np.multiply.outer(x, self.poles)) / self.poles
        return terms.sum(axis=-1).real

    def step_response(self, t, amplitude):
        return amplitude * self.integral(t)

    def expsum_response(self, t, amplitudes, rates):
        """Output for u(t) = sum_m a_m exp(-r_m t), switched on at t = 0.

        Each pole/rate pair contributes c a (exp(-r t) - exp(-p t)) / (p - r),
        written as exp(-r t) * (1 - exp(-(p - r) t)) / (p - r) so that
        nearby p and r lose no digits.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for a, r in zip(amplitudes, rates):
            d = self.poles - r
            ratio = -np.expm1(-np.multiply.outer(t, d)) / d
            out += a * np.exp(-r * t) * (self.coeffs * ratio).sum(axis=-1).real
        return out

    def zoh_response(self, t, hold_times, levels):
        """Output for a zero-order hold that is 0 before hold_times[0].

        The held input is a sum of steps of height levels[j] - levels[j-1]
        switched on at hold_times[j], so the output is the matching sum of
        shifted step responses.
        """
        t = np.asarray(t, dtype=float)
        jumps = np.diff(np.asarray(levels, dtype=float), prepend=0.0)
        shifted = np.subtract.outer(t, np.asarray(hold_times, dtype=float))
        return self.integral(shifted) @ jumps


def draw_system(rng: np.random.Generator, min_rate: float, max_rate: float) -> TrueSystem:
    """One real mode plus one oscillating pair, rates in [min_rate, max_rate].

    The real mode dominates, so the impulse response is positive at t = 0
    and its decay rate stays inside the range the benchmark's kernels cover.
    The ranges are narrow so that the fit error of a run, a median over
    its fits, varies little from seed to seed.
    """
    real_rate = rng.uniform(min_rate, max_rate)
    osc_rate = rng.uniform(min_rate, max_rate)
    freq = rng.uniform(0.8, 1.4)
    amp = rng.uniform(0.25, 0.4)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    c_osc = 0.5 * amp * np.exp(1j * phase)
    coeffs = np.array([1.0 + 0j, c_osc, np.conj(c_osc)])
    poles = np.array([real_rate + 0j, osc_rate + 1j * freq, osc_rate - 1j * freq])
    return TrueSystem(coeffs, poles)


def add_noise(rng: np.random.Generator, clean: np.ndarray, snr_db: float):
    """Noisy copy of ``clean`` and the noise variance used."""
    power = float(np.mean(clean ** 2))
    variance = power / 10.0 ** (snr_db / 10.0)
    return clean + rng.normal(0.0, np.sqrt(variance), clean.shape), variance


def relative_l2_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
