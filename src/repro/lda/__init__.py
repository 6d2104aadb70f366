"""SparkPlug proxy: variational-EM LDA at (simulated) scale (§4.4).

- :mod:`repro.lda.corpus` — synthetic multi-language Zipf corpus
  generator (the Wikipedia substitute; DESIGN.md records why shape
  statistics are what matter).
- :mod:`repro.lda.vem` — variational-EM Latent Dirichlet Allocation:
  per-document E-step (phi/gamma fixed point, run batched across
  documents with per-document convergence), sufficient-statistics
  M-step, and a tractable evidence bound for convergence checks.
- :mod:`repro.lda.sparkplug` — the distributed driver over
  :class:`~repro.spark.engine.SparkEngine`: E-step as map_partitions,
  statistics exchange as shuffle, model reduction as aggregate, with
  Fig 2's per-phase time breakdown for the default vs optimized stack.
"""

from repro.lda.corpus import SyntheticCorpus, make_corpus
from repro.lda.vem import LdaModel, e_step, m_step
from repro.lda.sparkplug import SparkPlugLDA

__all__ = [
    "SyntheticCorpus",
    "make_corpus",
    "LdaModel",
    "e_step",
    "m_step",
    "SparkPlugLDA",
]
