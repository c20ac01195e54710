"""CosineStrategy — semantic chunk clustering, parity with the reference's
``CosineStrategy`` pipeline (/root/reference/crawl4ai/extraction_strategy.py:
135-475):

  1. semantic pre-filter: cosine(query, chunk) ≥ sim_threshold, backfilled
     to ``at_least_k`` by best remaining similarity (:242-296);
  2. agglomerative clustering over pairwise cosine distances, cut at
     ``max_dist`` (:355-368 — scipy linkage/fcluster there; reimplemented
     here with the Lance–Williams update since scipy isn't in this
     container: single/complete/average/ward supported);
  3. group chunks by label retaining order, drop clusters under
     ``word_count_threshold`` words (:379-401);
  4. tag clusters with a classifier (:447-452) — the HF model is absent, so
     the embedder and tagger are pluggable callables with deterministic
     hashing defaults (documented; a sentence-transformers embedder slots
     straight in).

Ray mapping: ``CosineClusterStage`` — embedder/tagger built once per stage
instance, which runs as a task;
one page's chunks cluster inside the batch (clusters never span pages, so
no shuffle is needed)."""

from __future__ import annotations

import numpy as np

from ..hashing import md5_64


# ------------------------------------------------------------- embeddings
def hashed_embedding(texts: list[str], dim: int = 64) -> np.ndarray:
    """Deterministic feature-hashed bag-of-words embedding (L2-normalized).
    A stand-in with real cosine geometry — token overlap ⇒ high cosine —
    so clustering behavior is meaningful without a model."""
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for i, t in enumerate(texts):
        for tok in (t or "").lower().split():
            h = md5_64(tok)
            out[i, h % dim] += 1.0 if (h >> 32) % 2 else -1.0
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return out / norms


def hashed_tagger(contents: list[str], top_k: int = 3) -> list[list[str]]:
    """Deterministic stand-in for the reuters multilabel classifier: top-k
    most frequent non-trivial tokens per cluster content."""
    tags = []
    for c in contents:
        counts: dict[str, int] = {}
        for tok in (c or "").lower().split():
            if len(tok) > 3:
                counts[tok] = counts.get(tok, 0) + 1
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        tags.append([t for t, _n in top])
    return tags


# ------------------------------------------------------------- clustering
def cosine_pdist(embeddings: np.ndarray) -> np.ndarray:
    """Condensed pairwise cosine distance (scipy pdist 'cosine' order)."""
    m = embeddings / np.maximum(np.linalg.norm(embeddings, axis=1, keepdims=True), 1e-12)
    sim = np.clip(m @ m.T, -1.0, 1.0)
    n = len(m)
    iu, ju = np.triu_indices(n, k=1)
    return 1.0 - sim[iu, ju]


def linkage_merge_heights(dist_condensed: np.ndarray, n: int, method: str = "ward"):
    """Agglomerative clustering via the Lance–Williams update; returns the
    merge list [(height, members_a, members_b)] in merge order.  Naive
    O(n³) — fine at per-page chunk counts."""
    d = np.full((n, n), np.inf)
    iu, ju = np.triu_indices(n, k=1)
    d[iu, ju] = dist_condensed
    d[ju, iu] = dist_condensed
    active = {i: [i] for i in range(n)}
    merges = []
    while len(active) > 1:
        keys = sorted(active)
        best = (np.inf, None, None)
        for ai in range(len(keys)):
            for bi in range(ai + 1, len(keys)):
                a, b = keys[ai], keys[bi]
                if d[a, b] < best[0]:
                    best = (d[a, b], a, b)
        h, a, b = best
        na, nb = len(active[a]), len(active[b])
        merges.append((h, list(active[a]), list(active[b])))
        # Lance–Williams update of distances to the merged cluster (kept
        # under key `a`)
        for k in list(active):
            if k in (a, b):
                continue
            nk = len(active[k])
            dka, dkb, dab = d[k, a], d[k, b], d[a, b]
            if method == "single":
                nd = min(dka, dkb)
            elif method == "complete":
                nd = max(dka, dkb)
            elif method == "average":
                nd = (na * dka + nb * dkb) / (na + nb)
            elif method == "ward":
                tot = na + nb + nk
                nd = np.sqrt(
                    max(
                        ((na + nk) * dka**2 + (nb + nk) * dkb**2 - nk * dab**2) / tot,
                        0.0,
                    )
                )
            else:
                raise ValueError(f"unsupported linkage method: {method}")
            d[k, a] = d[a, k] = nd
        active[a] = active[a] + active[b]
        del active[b]
        d[b, :] = np.inf
        d[:, b] = np.inf
    return merges


def fcluster_distance(merges, n: int, max_dist: float) -> np.ndarray:
    """Flat labels from the merge list: union every merge with height ≤
    max_dist (scipy fcluster criterion='distance' on a monotonic linkage).
    Labels are 1-based in first-appearance order."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for h, a_members, b_members in merges:
        if h <= max_dist:
            ra, rb = find(a_members[0]), find(b_members[0])
            if ra != rb:
                parent[rb] = ra
    labels = np.zeros(n, dtype=np.int64)
    next_label = 1
    seen: dict[int, int] = {}
    for i in range(n):
        r = find(i)
        if r not in seen:
            seen[r] = next_label
            next_label += 1
        labels[i] = seen[r]
    return labels


# --------------------------------------------------------------- strategy
class CosineClusterer:
    """The reference CosineStrategy pipeline with pluggable model slots."""

    def __init__(self, semantic_filter: str | None = None,
                 word_count_threshold: int = 10, max_dist: float = 0.2,
                 linkage_method: str = "ward", top_k: int = 3,
                 sim_threshold: float = 0.3, embed_fn=None, tagger_fn=None):
        self.semantic_filter = semantic_filter
        self.word_count_threshold = word_count_threshold
        self.max_dist = max_dist
        self.linkage_method = linkage_method
        self.top_k = top_k
        self.sim_threshold = sim_threshold
        self.embed_fn = embed_fn or hashed_embedding
        self.tagger_fn = tagger_fn or (lambda cs: hashed_tagger(cs, self.top_k))

    def filter_documents_embeddings(self, documents: list[str],
                                    semantic_filter: str | None,
                                    at_least_k: int = 20) -> list[str]:
        """Reference :242-296, semantics preserved (threshold + backfill)."""
        if not semantic_filter:
            return documents
        if len(documents) < at_least_k:
            at_least_k = len(documents) // 2
        q = self.embed_fn([semantic_filter])[0]
        m = self.embed_fn(documents)
        qn = q / max(np.linalg.norm(q), 1e-12)
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        sims = mn @ qn
        filtered = [(doc, s) for doc, s in zip(documents, sims) if s >= self.sim_threshold]
        if len(filtered) < at_least_k:
            remaining = [(doc, s) for doc, s in zip(documents, sims) if s < self.sim_threshold]
            remaining.sort(key=lambda x: x[1], reverse=True)
            filtered.extend(remaining[: at_least_k - len(filtered)])
        return [doc for doc, _s in filtered][:at_least_k]

    def cluster(self, text_chunks: list[str]) -> list[dict]:
        """chunks → [{index, tags, content}] (reference extract(), :403-452)."""
        text_chunks = self.filter_documents_embeddings(text_chunks, self.semantic_filter)
        if not text_chunks:
            return []
        if len(text_chunks) == 1:
            labels = np.array([1])
        else:
            emb = self.embed_fn(text_chunks)
            merges = linkage_merge_heights(
                cosine_pdist(emb), len(text_chunks), self.linkage_method
            )
            labels = fcluster_distance(merges, len(text_chunks), self.max_dist)
        clusters: dict[int, list[str]] = {}
        for idx, label in enumerate(labels):
            clusters.setdefault(int(label), []).append(text_chunks[idx])
        filtered = {
            cid: texts
            for cid, texts in clusters.items()
            if len(" ".join(texts).split()) >= self.word_count_threshold
        }
        cluster_list = [
            {"index": int(cid), "tags": [], "content": " ".join(filtered[cid])}
            for cid in sorted(filtered)
        ]
        for cluster, tags in zip(
            cluster_list, self.tagger_fn([c["content"] for c in cluster_list])
        ):
            cluster["tags"] = tags
        return cluster_list


class CosineClusterStage:
    """map_batches stage: per-document chunk clustering (clusterer built
    once in __init__ and shipped with the instance; one output row per
    kept cluster)."""

    def __init__(self, chunk_delimiter: str = "\n", **clusterer_kwargs):
        self.clusterer = CosineClusterer(**clusterer_kwargs)
        self.delim = chunk_delimiter

    def __call__(self, batch):
        import pyarrow as pa

        out = {"doc_id": [], "cluster_index": [], "content": [], "tags": []}
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for c in self.clusterer.cluster((text or "").split(self.delim)):
                out["doc_id"].append(doc_id)
                out["cluster_index"].append(c["index"])
                out["content"].append(c["content"])
                out["tags"].append(c["tags"])
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                "cluster_index": pa.array(out["cluster_index"], type=pa.int32()),
                "content": pa.array(out["content"], type=pa.string()),
                "tags": pa.array(out["tags"], type=pa.list_(pa.string())),
            }
        )
