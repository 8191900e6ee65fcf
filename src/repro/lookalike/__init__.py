"""Look-alike system: embedding store, serving, audience expansion, A/B harness.

Reproduces the deployment framework of §IV-D (offline embedding store +
online serving cache) and the uploader-recommendation A/B test of §V-F with a
behaviour simulator standing in for live traffic.
"""

from repro.lookalike.ab_test import ABTestReport, OnlineABTest, UploaderBehaviorSimulator
from repro.lookalike.ann import IVFIndex, exact_top_k
from repro.lookalike.quality import (expansion_lift, expansion_precision,
                                     precision_at_depths)
from repro.lookalike.quant import (Int8Quantizer, PQQuantizer,
                                   QuantizedEmbeddingStore)
from repro.lookalike.serving import ServingProxy, ServingResilience
from repro.lookalike.store import EmbeddingStore, LRUCache
from repro.lookalike.system import LookalikeSystem

__all__ = [
    "EmbeddingStore", "LRUCache", "ServingProxy", "ServingResilience",
    "LookalikeSystem",
    "UploaderBehaviorSimulator", "OnlineABTest", "ABTestReport",
    "expansion_precision", "expansion_lift", "precision_at_depths",
    "IVFIndex", "exact_top_k",
    "Int8Quantizer", "PQQuantizer", "QuantizedEmbeddingStore",
]
