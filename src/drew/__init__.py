"""Cluster-routed source identification.

Items are stored with a watermark key that encodes their cluster index
through a shortened polar code.  A query's decoded key routes retrieval to
one cluster when the decode looks reliable and falls back to a full exact
scan otherwise.  The fallback fires only where the reliability gate flags a
decode unreliable; ``drew eval`` checks ``acc_drew >= acc_naive - epsilon_r``
within sampling bands, where ``epsilon_r`` is the share of decodes the gate
passes that land in the wrong cluster.
"""
from .channel import (
    AttackConfig,
    AttackStreams,
    Query,
    attack_rows,
    default_suite,
    load_suite,
)
from .ecc import (
    KNOWN_BIT_LLR,
    DecodeOutcome,
    PolarCodeSpec,
    binary_entropy,
    capacity_rate,
    codes_to_ints,
    construct_code,
    decode,
    decode_batch,
    decode_keys,
    encode,
    encode_all,
    llr_from_keys,
    max_tolerable_flip_rate,
    polar_transform,
)
from .pipeline import NO_MATCH, QueryConfig, QueryResult, drew_query, naive_query, preprocess
from .store import FULL, Store, StoreFormatError, assign_clusters, ingest, ingest_csv, load_store, top_matches
from .synthetic import synthetic_embeddings, synthetic_store

__version__ = "0.1.0"
