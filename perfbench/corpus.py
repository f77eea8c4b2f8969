"""Seeded synthetic citation corpus and a from-the-definition index oracle.

Nothing here imports bibfactor: the oracle is written from the index
definitions so that it checks the package instead of repeating it.
"""

from __future__ import annotations

import math

import numpy as np

N_SCIENTISTS = 2000
N_PAPERS = 300_000
MIN_PAPERS = 5


def generate(seed, n_scientists=N_SCIENTISTS, n_papers=N_PAPERS):
    """Return ``{label: [citation counts]}`` with exactly ``n_papers`` papers.

    Paper counts per scientist are lognormal shares of a fixed total, so the
    corpus size does not move with the seed and timings stay comparable
    across seeds. Citations follow a Zipf rank-frequency law
    c(r) = top * r**-alpha with per-scientist ``top`` and ``alpha`` and
    lognormal noise per paper.
    """
    rng = np.random.default_rng(seed)
    weights = rng.lognormal(0.0, 1.0, n_scientists)
    sizes = MIN_PAPERS + rng.multinomial(
        n_papers - MIN_PAPERS * n_scientists, weights / weights.sum()
    )
    corpus = {}
    for i, n in enumerate(sizes):
        top = rng.lognormal(4.0, 1.0)
        alpha = rng.uniform(0.5, 1.2)
        ranks = np.arange(1, n + 1, dtype=float)
        noise = rng.lognormal(0.0, 0.3, n)
        counts = np.floor(top * ranks**-alpha * noise).astype(np.int64)
        corpus[f"s{i:05d}"] = counts.tolist()
    return corpus


def write_long_csv(corpus, path, seed):
    """Write the corpus in the long format, rows shuffled across scientists."""
    labels = np.repeat(np.array(list(corpus)), [len(c) for c in corpus.values()])
    counts = np.concatenate([np.asarray(c, dtype=np.int64) for c in corpus.values()])
    order = np.random.default_rng([seed, 1]).permutation(labels.size)
    lines = ["scientist,citations"]
    lines += [f"{label},{count}" for label, count in zip(labels[order], counts[order])]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def indices_by_definition(counts):
    """h, g, h2, A, R, hw, N, S and C of one record, straight from the
    definitions, by exhaustive search over ranks."""
    c = sorted(counts, reverse=True)
    n = len(c)
    s = sum(c)
    cumulative = [0]
    for value in c:
        cumulative.append(cumulative[-1] + value)

    def top(k):  # citations of the k most cited papers, zero-padded beyond n
        return cumulative[min(k, n)]

    h = max([r for r in range(1, n + 1) if c[r - 1] >= r], default=0)
    h2 = max([r for r in range(1, n + 1) if c[r - 1] >= r * r], default=0)
    g = max([r for r in range(1, math.isqrt(s) + 1) if top(r) >= r * r], default=0)
    if h:
        a = top(h) / h
        r_index = math.sqrt(top(h))
        r0 = max(r for r in range(1, n + 1) if top(r) / h <= c[r - 1])
        hw = math.sqrt(top(r0))
    else:
        a = r_index = hw = 0.0
    return {"h": h, "g": g, "h2": h2, "A": a, "R": r_index, "hw": hw,
            "N": n, "S": s, "C": s / n}
