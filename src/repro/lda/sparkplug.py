"""SparkPlug: distributed LDA on the mini Spark engine (Fig 2).

Per EM iteration:

1. **compute** — the E-step runs as ``map_partitions`` over document
   partitions, producing per-partition sufficient statistics.
2. **shuffle** — partial statistics are split into vocabulary blocks
   and exchanged all-to-all so each worker owns a block (the word-
   statistics regroup that stressed Spark's shuffle at 54M words).
3. **aggregate** — per-block partials reduce to the driver
   (all-to-one), which re-estimates beta and broadcasts it.

Results are exact up to summation order: given the same initialization
the distributed model equals the single-process reference bitwise at
one partition, and within 1e-12 at any other partition count, where
partial statistics are added in a different order (both tested).  The
modeled cluster time lands in the engine's TimerRegistry under
``compute`` / ``shuffle`` / ``aggregate`` — the Fig 2 phases — and the
default-vs-optimized stack comparison reproduces the >2X improvement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.machine import Machine
from repro.lda.corpus import SyntheticCorpus
from repro.lda.vem import LdaModel, e_step, m_step
from repro.spark.engine import SparkEngine
from repro.spark.jvm import DEFAULT_STACK, JvmStack
from repro.util.timing import TimerRegistry

#: flops per token per E-step fixed-point iteration (K-dim vector work)
FLOPS_PER_TOKEN_PER_TOPIC = 12.0


class SparkPlugLDA:
    """Distributed variational-EM LDA driver."""

    def __init__(
        self,
        corpus: SyntheticCorpus,
        n_topics: int,
        engine: SparkEngine,
        shuffle_algorithm: str = "hash",
        aggregate_algorithm: str = "flat",
        seed: int = 0,
    ):
        if n_topics < 1:
            raise ValueError("need at least one topic")
        if shuffle_algorithm not in ("hash", "adaptive"):
            raise ValueError("bad shuffle algorithm")
        if aggregate_algorithm not in ("flat", "tree"):
            raise ValueError("bad aggregate algorithm")
        self.corpus = corpus
        self.engine = engine
        self.shuffle_algorithm = shuffle_algorithm
        self.aggregate_algorithm = aggregate_algorithm
        self.model = LdaModel.random_init(
            n_topics, corpus.vocab_size, seed=seed
        )
        self.partitions = engine.parallelize(corpus.docs)
        self.bound_history: List[float] = []

    # ------------------------------------------------------------------

    def iterate(self, n_iters: int = 1) -> LdaModel:
        """Run EM iterations; returns the updated model."""
        if n_iters < 0:
            raise ValueError("n_iters must be >= 0")
        for _ in range(n_iters):
            self._one_iteration()
        return self.model

    def _one_iteration(self) -> None:
        engine = self.engine
        model = self.model
        k, v = model.n_topics, model.vocab_size
        avg_doc_tokens = max(
            1.0, self.corpus.n_tokens / max(self.corpus.n_docs, 1)
        )

        # 1. compute: E-step per partition
        def estep_partition(docs):
            ss, _, bound = e_step(model, docs)
            return [(ss, bound)]

        flops = FLOPS_PER_TOKEN_PER_TOPIC * k * avg_doc_tokens * 20
        partials = engine.map_partitions(
            self.partitions, estep_partition, flops_per_record=flops,
            name="compute",
        )

        # 2. shuffle: split stats into vocab blocks, exchange all-to-all
        p = engine.p
        block = max(1, -(-v // p))

        def split_blocks(part):
            out = []
            for ss, bound in part:
                for bid in range(p):
                    lo, hi = bid * block, min((bid + 1) * block, v)
                    if lo >= v:
                        break
                    out.append((bid, ss[:, lo:hi], bound if bid == 0 else 0.0))
            return out

        blocks = [split_blocks(part) for part in partials]
        grouped = engine.shuffle(
            blocks, key_fn=lambda rec: rec[0],
            algorithm=self.shuffle_algorithm,
        )

        # per-worker block reduction (free in the model: overlapped)
        def reduce_blocks(part):
            if not part:
                return []
            bid = part[0][0]
            total = part[0][1].copy()
            bound = part[0][2]
            for _, ss_blk, b in part[1:]:
                total += ss_blk
                bound += b
            return [(bid, total, bound)]

        reduced = [reduce_blocks(part) for part in grouped]

        # 3. aggregate: blocks to the driver (all-to-one)
        def seq(acc, rec):
            bid, ss_blk, bound = rec
            acc[0][bid] = ss_blk
            acc[1] += bound
            return acc

        def comb(a, b):
            a[0].update(b[0])
            a[1] += b[1]
            return a

        per_block_bytes = 8.0 * k * block
        acc = engine.aggregate(
            reduced, seq, comb, zero=[{}, 0.0],
            algorithm=self.aggregate_algorithm,
            payload_bytes=per_block_bytes,
        )
        block_map: Dict[int, np.ndarray] = acc[0]
        bound = acc[1]
        ss = np.zeros((k, v))
        for bid, ss_blk in block_map.items():
            lo = bid * block
            ss[:, lo:lo + ss_blk.shape[1]] = ss_blk

        # M-step + broadcast of the new model
        self.model = m_step(model, ss)
        engine.timers.add(
            "aggregate", engine.broadcast_time(8.0 * k * v)
        )
        self.bound_history.append(bound)

    # ------------------------------------------------------------------

    def phase_breakdown(self) -> Dict[str, float]:
        """Modeled cluster seconds per Fig 2 phase."""
        t = self.engine.timers
        return {name: t.total(name) for name in ("compute", "shuffle",
                                                 "aggregate")}

    @property
    def total_time(self) -> float:
        return sum(self.phase_breakdown().values())


def compare_stacks(
    corpus: SyntheticCorpus,
    n_topics: int,
    n_workers: int = 32,
    n_iters: int = 3,
    machine: Optional[Machine] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Fig 2: default stack + hash shuffle + flat aggregate vs
    optimized stack + adaptive shuffle + tree aggregate."""
    from repro.spark.jvm import OPTIMIZED_STACK

    results: Dict[str, Dict[str, float]] = {}
    for label, stack, shuffle_alg, agg_alg in (
        ("default", DEFAULT_STACK, "hash", "flat"),
        ("optimized", OPTIMIZED_STACK, "adaptive", "tree"),
    ):
        engine = SparkEngine(n_workers, machine=machine, stack=stack)
        lda = SparkPlugLDA(
            corpus, n_topics, engine,
            shuffle_algorithm=shuffle_alg,
            aggregate_algorithm=agg_alg,
            seed=seed,
        )
        lda.iterate(n_iters)
        breakdown = lda.phase_breakdown()
        breakdown["total"] = sum(breakdown.values())
        results[label] = breakdown
    return results
