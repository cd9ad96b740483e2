"""Seeded synthetic world: keyphrase statistics and item titles.

Every input the benchmark feeds the program is drawn here from one
``numpy`` generator per purpose, so the same ``--seed`` always yields the
same world, the same titles and the same event schedule.  The shape
follows the repository's standalone benches: each leaf category owns a
pool of 60 tokens, keyphrases are 1-5 distinct pool tokens, and titles
are 4-12 distinct pool tokens plus, half the time, one out-of-vocabulary
token.  A slice of titles targets a leaf with no graph, which exercises
the engine's empty path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.curation import CurationConfig
from repro.search.logs import KeyphraseStat

POOL_SIZE = 60
#: Keyphrases searched fewer times than this are curated away (~5%).
MIN_SEARCH_COUNT = 50
CURATION = CurationConfig(min_search_count=MIN_SEARCH_COUNT)

#: (item_id, title, leaf_id) — the engine's request triple.
Request = Tuple[int, str, int]


def rng_for(seed: int, *purpose: int) -> np.random.Generator:
    """A generator keyed by the run seed and a purpose tuple, so each
    input stream is independent of how much the others consumed."""
    return np.random.default_rng([seed, *purpose])


@dataclass
class World:
    """Leaf token pools and keyphrases; :meth:`stats` draws one day's
    search counts for them."""

    seed: int
    n_leaves: int
    pools: Dict[int, np.ndarray]
    phrases: List[Tuple[str, int]]

    def stats(self, day: int) -> List[KeyphraseStat]:
        """Day ``day``'s aggregated search statistics: the world's
        phrases with freshly drawn search and recall counts, so each
        day's curation keeps a different subset."""
        rng = rng_for(self.seed, 1, day)
        n = len(self.phrases)
        search = rng.integers(1, 1000, size=n).tolist()
        recall = rng.integers(1, 1000, size=n).tolist()
        return [KeyphraseStat(text, leaf, s, r) for (text, leaf), s, r
                in zip(self.phrases, search, recall)]

    def titles(self, purpose: int, n: int) -> List[Tuple[str, int]]:
        """``n`` seeded ``(title, leaf_id)`` pairs; leaf ``n_leaves + 1``
        has no graph."""
        rng = rng_for(self.seed, 2, purpose)
        leaves = rng.integers(1, self.n_leaves + 2, size=n)
        lengths = rng.integers(4, 13, size=n)
        order = rng.random((n, POOL_SIZE)).argsort(axis=1)[:, :12]
        oov = rng.integers(0, 50, size=n)
        add_oov = rng.random(n) < 0.5
        unknown_pool = self.pools[1]
        out = []
        for leaf, length, row, noise, noisy in zip(
                leaves.tolist(), lengths.tolist(), order.tolist(),
                oov.tolist(), add_oov.tolist()):
            pool = self.pools.get(leaf, unknown_pool)
            words = pool[row[:length]].tolist()
            if noisy:
                words.append(f"oov{noise}")
            out.append((" ".join(words), leaf))
        return out


def make_world(seed: int, n_leaves: int, phrases_per_leaf: int) -> World:
    """Leaf ids run 1..n_leaves; each draws 60 tokens from a shared
    vocabulary of 60 tokens per leaf, so pools overlap, and up to
    ``phrases_per_leaf`` distinct 1-5 token keyphrases from its pool."""
    rng = rng_for(seed, 0)
    vocab = np.array([f"tok{i}" for i in range(POOL_SIZE * n_leaves)])
    pools = {leaf_id: rng.choice(vocab, size=POOL_SIZE, replace=False)
             for leaf_id in range(1, n_leaves + 1)}
    phrases: List[Tuple[str, int]] = []
    for leaf_id, pool in pools.items():
        lengths = rng.integers(1, 6, size=phrases_per_leaf)
        order = rng.random((phrases_per_leaf, POOL_SIZE)).argsort(axis=1)
        texts = {" ".join(pool[row[:length]].tolist())
                 for row, length in zip(order[:, :5].tolist(),
                                        lengths.tolist())}
        phrases.extend((text, leaf_id) for text in sorted(texts))
    return World(seed=seed, n_leaves=n_leaves, pools=pools,
                 phrases=phrases)


def requests_from(titles: Sequence[Tuple[str, int]]) -> List[Request]:
    """Engine requests for ``titles``, item ids numbered from 0."""
    return [(i, title, leaf) for i, (title, leaf) in enumerate(titles)]
