"""Attack channel simulation.

A stored item re-enters the system with its watermark key pushed through an
i.i.d. bit-flip channel and its embedding displaced by isotropic Gaussian
noise on the unit sphere.  Each named attack fixes one (flip rate, noise
scale) pair; a suite is a JSON list of attacks.  Key noise and embedding
noise draw from independent substreams of the master seed, so changing one
attack knob never reshuffles the other channel.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .rng import substream


@dataclass(frozen=True)
class AttackConfig:
    """One attack: flip rate ``p_a`` on key bits, Gaussian ``sigma`` on the
    embedding, optionally an out-of-dataset query (no ground truth)."""

    name: str
    p_a: float
    sigma: float
    out_of_dataset: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("attack name must be non-empty")
        if not 0.0 <= self.p_a <= 0.5:
            raise ValueError(f"attack p_A must lie in [0, 0.5], got {self.p_a}")
        if self.sigma < 0.0:
            raise ValueError(f"attack sigma must be >= 0, got {self.sigma}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "p_A": self.p_a,
            "sigma": self.sigma,
            "out_of_dataset": self.out_of_dataset,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AttackConfig":
        return cls(
            name=str(doc["name"]),
            p_a=float(doc["p_A"]),
            sigma=float(doc["sigma"]),
            out_of_dataset=bool(doc.get("out_of_dataset", False)),
        )


@dataclass(frozen=True)
class Query:
    """What the system sees at query time."""

    observed_key: np.ndarray
    observed_embedding: np.ndarray
    ground_truth_id: int | None = None


@dataclass
class AttackStreams:
    """Independent RNG substreams for the two noise sources of one attack."""

    key: np.random.Generator
    embedding: np.random.Generator
    out_of_dataset: np.random.Generator

    @classmethod
    def for_attack(cls, master_seed: int, attack_name: str) -> "AttackStreams":
        return cls(
            key=substream(master_seed, f"attack/{attack_name}/key"),
            embedding=substream(master_seed, f"attack/{attack_name}/embedding"),
            out_of_dataset=substream(master_seed, f"attack/{attack_name}/out-of-dataset"),
        )


def attack_rows(
    keys: np.ndarray, embs: np.ndarray, attack: AttackConfig, streams: AttackStreams
) -> tuple[np.ndarray, np.ndarray]:
    """Push rows of stored items through one attack's channel.

    ``keys`` is a (B, n) bit matrix and ``embs`` a (B, d) matrix of unit
    embeddings.  Each key bit flips with probability ``p_a``, drawn as
    ``streams.key.random < p_a``; each embedding becomes
    ``normalize(e + sigma * g)`` with g drawn by
    ``streams.embedding.standard_normal``.  A knob at zero draws nothing.
    Rows draw in order, so B one-row calls equal one B-row call bit for
    bit.  Returns new ``(keys, embs)`` arrays, uint8 and float64.
    """
    keys = np.array(keys, dtype=np.uint8)
    embs = np.array(embs, dtype=np.float64)
    if attack.p_a > 0.0:
        keys ^= (streams.key.random(keys.shape) < attack.p_a).astype(np.uint8)
    if attack.sigma > 0.0:
        embs += attack.sigma * streams.embedding.standard_normal(embs.shape)
        embs /= np.sqrt(np.einsum("nd,nd->n", embs, embs))[:, None]
    return keys, embs


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def load_suite(path) -> list[AttackConfig]:
    """Load an attack suite from a JSON file: a list of attack objects."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_suite(doc)


def parse_suite(doc) -> list[AttackConfig]:
    if not isinstance(doc, list) or not doc:
        raise ValueError("attack suite must be a non-empty JSON list")
    attacks = [AttackConfig.from_dict(item) for item in doc]
    names = [a.name for a in attacks]
    if len(set(names)) != len(names):
        raise ValueError("attack names must be unique within a suite")
    return attacks


def default_suite() -> list[AttackConfig]:
    """The packaged suite: named image augmentations mapped to channel knobs."""
    text = resources.files("drew.data").joinpath("default_suite.json").read_text("utf-8")
    return parse_suite(json.loads(text))
