"""Seeded synthetic trial generators: the models and key domains of
``docs/config_format.md``, drawn from the random streams of
``docs/determinism.md``."""

import math
from dataclasses import dataclass

import numpy as np

from .archive import TrialArchive
from .exceptions import InvalidInput
from .geometry import _is_integer, check_spd, expm, sqrtm

__all__ = [
    "RiemannianGaussianSpec", "MixedSourcesSpec",
    "synth_riemannian_gaussian", "synth_mixed_sources",
]


def _trial_rng(seed, class_index, trial_index):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), 1, int(class_index),
                                int(trial_index)])
    ))


def _global_rng(seed):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), 0])
    ))


def _check_integers(spec, *counts):
    """Refuse a spec whose ``counts`` are not positive integers or whose
    seed is not a non-negative integer, naming the field."""
    for name in counts:
        value = getattr(spec, name)
        if not _is_integer(value) or value < 1:
            raise InvalidInput(f"{name} must be a positive integer")
    if not _is_integer(spec.seed) or spec.seed < 0:
        raise InvalidInput("seed must be a non-negative integer")


@dataclass(frozen=True)
class RiemannianGaussianSpec:
    """Covariance-kind generator: per class, a log-normal point cloud
    with dispersion ``sigma`` around an SPD center (``None``: identity)."""

    dim: int
    sigmas: tuple
    trials_per_class: int
    seed: int
    centers: tuple = None

    def __post_init__(self):
        _check_integers(self, "dim", "trials_per_class")
        if len(self.sigmas) < 2:
            raise InvalidInput("need at least 2 classes")
        if not all(0 < s < math.inf for s in self.sigmas):
            raise InvalidInput("dispersions must be positive and finite")
        centers = self.centers
        if centers is None:
            centers = (None,) * len(self.sigmas)
        if len(centers) != len(self.sigmas):
            raise InvalidInput("need one center per class")
        centers = tuple(np.eye(self.dim) if c is None
                        else check_spd(c, "class center") for c in centers)
        if any(c.shape != (self.dim, self.dim) for c in centers):
            raise InvalidInput("centers must match dim")
        object.__setattr__(self, "centers", centers)

    @property
    def n_classes(self):
        return len(self.sigmas)


@dataclass(frozen=True)
class MixedSourcesSpec:
    """Time-series-kind generator: fixed random mixing of independent
    sources whose per-class standard-deviation profiles differ."""

    channels: int
    samples: int
    profiles: tuple
    trials_per_class: int
    seed: int
    noise_std: float = 0.1

    def __post_init__(self):
        _check_integers(self, "channels", "samples", "trials_per_class")
        if len(self.profiles) < 2:
            raise InvalidInput("need at least 2 classes")
        profiles = tuple(np.asarray(p, dtype=np.float64)
                         for p in self.profiles)
        n_sources = profiles[0].size
        if any(p.shape != (n_sources,) for p in profiles):
            raise InvalidInput("profiles must share their source count")
        if not all(np.all((p > 0) & (p < np.inf)) for p in profiles):
            raise InvalidInput(
                "source standard deviations must be positive and finite")
        # identical class profiles are allowed: the null experiment
        if self.channels < n_sources:
            raise InvalidInput("need at least as many channels as sources")
        if self.samples < 2:
            raise InvalidInput("need at least 2 samples")
        if not 0 <= self.noise_std < math.inf:
            raise InvalidInput("noise_std must be non-negative and finite")
        object.__setattr__(self, "profiles", profiles)

    @property
    def n_classes(self):
        return len(self.profiles)

    @property
    def n_sources(self):
        return self.profiles[0].size


def _symmetric_gaussians(dim, sigma, rngs):
    """Symmetric matrices, one per generator, with N(0, sigma^2)
    diagonal and N(0, sigma^2/2) off-diagonal entries, each drawn from
    its generator in fixed row-major upper-tri order."""
    draws = [(rng.normal(0.0, sigma, dim),
              rng.normal(0.0, sigma / np.sqrt(2.0), dim * (dim - 1) // 2))
             for rng in rngs]
    rows, cols = np.triu_indices(dim, k=1)
    s = np.zeros((len(draws), dim, dim))
    s[:, rows, cols] = [off for _, off in draws]
    s = s + np.swapaxes(s, 1, 2)
    s[:, np.arange(dim), np.arange(dim)] = [diag for diag, _ in draws]
    return s


def synth_riemannian_gaussian(spec):
    """Draw each class's SPD trials ``M^{1/2} exp(S) M^{1/2}``, ``S``
    from :func:`_symmetric_gaussians`, class-major."""
    n = spec.trials_per_class
    trials = []
    for c, (sigma, center) in enumerate(zip(spec.sigmas, spec.centers)):
        root = sqrtm(center)
        s = _symmetric_gaussians(spec.dim, sigma, [
            _trial_rng(spec.seed, c, t) for t in range(n)])
        trials.append(root @ expm(s) @ root)
    return TrialArchive(
        kind="covariance", trials=np.concatenate(trials),
        labels=np.repeat(np.arange(spec.n_classes, dtype=np.uint32), n),
        n_classes=spec.n_classes,
    )


def synth_mixed_sources(spec):
    """Draw each class's time-series trials ``A diag(profile) Z +
    noise``, class-major."""
    mixing = _global_rng(spec.seed).standard_normal(
        (spec.channels, spec.n_sources)
    )
    trials = []
    labels = []
    for c, profile in enumerate(spec.profiles):
        scaled = mixing * profile[None, :]
        for t in range(spec.trials_per_class):
            rng = _trial_rng(spec.seed, c, t)
            z = rng.standard_normal((spec.n_sources, spec.samples))
            x = scaled @ z
            if spec.noise_std > 0:
                x = x + rng.normal(0.0, spec.noise_std,
                                   (spec.channels, spec.samples))
            trials.append(x)
            labels.append(c)
    return TrialArchive(
        kind="time-series", trials=np.stack(trials),
        labels=np.array(labels, dtype=np.uint32),
        n_classes=spec.n_classes,
    )
