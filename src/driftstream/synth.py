"""Synthetic token-stream generator with controllable concept changes.

Streams imitate the shape of real app telemetry: each sample carries a few
attributes of string tokens, goodware draws from a stationary token pool,
and malware draws from concept-dependent pools.  Two change kinds are
supported at each drift point:

* ``abrupt`` — malware shifts the emphasis of its token usage to a
  different subset of the *known* pool, so a refitted classifier can
  recover without touching the vocabulary;
* ``vocabulary-shift`` — the malware-indicative tokens are replaced by
  previously unseen tokens, which silently fall out of a stale
  vocabulary's reach until the extractor is refitted.

Generation is fully deterministic for a given spec (including the seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .stream import MAX_TIMESTAMP, SampleStream, _Columns

_ATTRIBUTE_NAMES = ("api_calls", "permissions", "intents", "urls",
                    "opcodes", "libraries", "providers", "receivers")

_GOODWARE_POOL = 30      # stationary tokens per attribute
_SKEW_SUBSET = 8         # tokens malware over-uses within the known pool
_MALWARE_POOL = 15       # concept-specific malware tokens per attribute
_MALWARE_CONCEPT_SHARE = 0.6   # malware token mass on concept tokens
_MALWARE_SKEW_SHARE = 0.25     # malware token mass on the known skew subset

# Largest accepted ``tokens_mean``.  A stream holds about n_samples x
# n_attributes x tokens_mean tokens in memory, and numpy's Poisson draw
# fails outright for a mean past about 1e19; 1,000 tokens per attribute is
# 50 times the densest benchmark stream (20).
MAX_TOKENS_MEAN = 1000.0


@dataclass(frozen=True)
class SynthStreamSpec:
    """Parameters of a synthetic stream."""

    n_samples: int
    drift_points: tuple[int, ...] = ()
    kind: str = "vocabulary-shift"
    malware_rate: float = 0.35
    n_attributes: int = 2
    tokens_mean: float = 8.0
    seed: int = 0
    start_timestamp: int = 1230768000  # 2009-01-01T00:00:00Z
    step_seconds: int = 1

    def validate(self) -> None:
        if self.n_samples < 1:
            raise InvalidSpec(f"n_samples must be >= 1, got {self.n_samples}")
        if self.kind not in ("abrupt", "vocabulary-shift"):
            raise InvalidSpec(f"unknown drift kind {self.kind!r}")
        if not 0.0 < self.malware_rate < 1.0:
            raise InvalidSpec(
                f"malware_rate {self.malware_rate} not in (0, 1)")
        if self.n_attributes < 1:
            raise InvalidSpec("need at least one attribute")
        if not 0.0 < self.tokens_mean < math.inf:
            raise InvalidSpec("tokens_mean must be positive and finite")
        if self.tokens_mean > MAX_TOKENS_MEAN:
            raise InvalidSpec(f"tokens_mean must be <= {MAX_TOKENS_MEAN:g}, "
                              f"got {self.tokens_mean:g}")
        if self.seed < 0:  # numpy's seeding rejects it
            raise InvalidSpec("seed must be >= 0")
        if self.step_seconds < 1:
            raise InvalidSpec("step_seconds must be >= 1")
        if self.start_timestamp < 0:
            raise InvalidSpec("start_timestamp must be >= 0")
        last = self.start_timestamp + (self.n_samples - 1) * self.step_seconds
        if last > MAX_TIMESTAMP:  # load_stream would reject the stream
            raise InvalidSpec(
                f"last timestamp {last} is past 9999-12-31T23:59:59Z")
        previous = 0
        for point in self.drift_points:
            if not 0 < point < self.n_samples:
                raise InvalidSpec(
                    f"drift point {point} outside (0, {self.n_samples})")
            if point <= previous and previous != 0:
                raise InvalidSpec("drift points must be strictly increasing")
            previous = point


def _attribute_names(n: int) -> list[str]:
    names = list(_ATTRIBUTE_NAMES[:n])
    while len(names) < n:
        names.append(f"attr_{len(names)}")
    return names


def _goodware_tokens(attr_idx: int) -> list[str]:
    return [f"g{attr_idx}_{i:02d}" for i in range(_GOODWARE_POOL)]


def _concept_tokens(attr_idx: int, concept: int) -> list[str]:
    return [f"m{attr_idx}c{concept}_{i:02d}" for i in range(_MALWARE_POOL)]


def _class_distribution(attr_idx: int, concept: int, label: int,
                        kind: str) -> tuple[list[str], np.ndarray]:
    """Token pool and sampling probabilities for one (concept, class)."""
    goodware = _goodware_tokens(attr_idx)
    if label == 0:
        probs = np.full(len(goodware), 1.0 / len(goodware))
        return goodware, probs
    if kind == "vocabulary-shift":
        concept_pool = _concept_tokens(attr_idx, concept)
        tokens = concept_pool + goodware
        probs = np.zeros(len(tokens))
        probs[:len(concept_pool)] = _MALWARE_CONCEPT_SHARE / len(concept_pool)
        residual = 1.0 - _MALWARE_CONCEPT_SHARE - _MALWARE_SKEW_SHARE
        probs[len(concept_pool):] = residual / len(goodware)
        probs[len(concept_pool):len(concept_pool) + _SKEW_SUBSET] += (
            _MALWARE_SKEW_SHARE / _SKEW_SUBSET)
        return tokens, probs
    # abrupt: emphasis moves to a rotating subset of the known pool
    probs = np.full(len(goodware), (1.0 - _MALWARE_CONCEPT_SHARE) / len(goodware))
    start = (concept * _SKEW_SUBSET) % len(goodware)
    for offset in range(_SKEW_SUBSET):
        probs[(start + offset) % len(goodware)] += (
            _MALWARE_CONCEPT_SHARE / _SKEW_SUBSET)
    return goodware, probs


def generate_synth_stream(spec: SynthStreamSpec) -> SampleStream:
    """Generate a fully labeled stream according to ``spec``."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    attr_names = _attribute_names(spec.n_attributes)
    boundaries = list(spec.drift_points)
    n_concepts = len(boundaries) + 1

    # precompute (concept, label, attribute) -> (tokens, probabilities)
    tables = {}
    for concept in range(n_concepts):
        for label in (0, 1):
            for attr_idx in range(spec.n_attributes):
                tables[(concept, label, attr_idx)] = _class_distribution(
                    attr_idx, concept, label, spec.kind)

    columns = _Columns(tuple(attr_names))
    concept = 0
    pad = max(6, len(str(spec.n_samples)))
    for i in range(spec.n_samples):
        while concept < len(boundaries) and i >= boundaries[concept]:
            concept += 1
        label = int(rng.random() < spec.malware_rate)
        cells = []
        for attr_idx in range(spec.n_attributes):
            tokens, probs = tables[(concept, label, attr_idx)]
            count = max(1, int(rng.poisson(spec.tokens_mean)))
            drawn = rng.choice(len(tokens), size=count, replace=True, p=probs)
            cells.append([tokens[j] for j in drawn])
        columns.add(f"s{i:0{pad}d}",
                    spec.start_timestamp + i * spec.step_seconds, label, cells)
    return columns.stream()
