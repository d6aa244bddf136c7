"""Independent-model features: content, sequential user behavior, follower-graph
scores, and hashed character n-grams, assembled into a sparse feature matrix
with a column dictionary frozen at fit time. A subset's matrix holds its
messages in chronological order, so a slice of the subset is a range of rows
(`FeatureMatrix.rows`).
"""

from __future__ import annotations

import json
import logging
import re
import zipfile
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data_model import (
    DataError,
    Message,
    message_hashtags,
    message_links,
    message_mentions,
    normalize_text,
)

log = logging.getLogger(__name__)

CONTENT_COLUMNS = (
    "num_chars", "num_hashtags", "num_links", "num_mentions",
    "is_retweet", "polarity", "subjectivity",
)
USER_COLUMNS = (
    "user_msgs", "user_hashtag_ratio", "user_mention_ratio", "user_link_ratio",
    "user_blacklist", "user_whitelist",
    "user_len_max", "user_len_min", "user_len_mean", "track_msgs",
)
GRAPH_COLUMNS = ("pagerank", "triangle_count", "k_core", "in_degree", "out_degree")

# Indicator columns stay unscaled when the classifier standardizes inputs.
BINARY_COLUMNS = frozenset({"is_retweet", "user_blacklist", "user_whitelist"})
NGRAM_PREFIX = "ng:"

BLACKLIST_SPAM_THRESHOLD = 3
WHITELIST_HAM_THRESHOLD = 10

# Small embedded sentiment lexicon: word -> (polarity in [-1, 1], subjectivity in [0, 1]).
# Scores are the mean over matched tokens; texts with no matches score 0.
SENTIMENT_LEXICON = {
    "good": (0.7, 0.6), "great": (0.8, 0.75), "awesome": (1.0, 1.0), "amazing": (0.9, 0.9),
    "excellent": (1.0, 1.0), "best": (1.0, 0.3), "love": (0.5, 0.6), "loved": (0.7, 0.8),
    "like": (0.2, 0.3), "nice": (0.6, 1.0), "cool": (0.35, 0.65), "happy": (0.8, 1.0),
    "fun": (0.3, 0.2), "beautiful": (0.85, 1.0), "perfect": (1.0, 1.0), "win": (0.8, 0.9),
    "free": (0.4, 0.8), "wow": (0.1, 1.0), "thanks": (0.2, 0.2), "thank": (0.2, 0.2),
    "congrats": (0.9, 0.9), "congratulations": (0.9, 0.9), "super": (0.3, 0.6),
    "fantastic": (0.9, 0.9), "glad": (0.5, 1.0), "wonderful": (1.0, 1.0), "enjoy": (0.4, 0.5),
    "bad": (-0.7, 0.67), "worst": (-1.0, 1.0), "hate": (-0.8, 0.9), "hated": (-0.9, 0.7),
    "awful": (-1.0, 1.0), "terrible": (-1.0, 1.0), "horrible": (-1.0, 1.0), "sad": (-0.5, 1.0),
    "angry": (-0.5, 1.0), "annoying": (-0.8, 1.0), "boring": (-1.0, 1.0), "stupid": (-0.8, 0.9),
    "ugly": (-0.7, 1.0), "scam": (-0.9, 0.8), "fake": (-0.6, 0.6), "spam": (-0.7, 0.5),
    "sucks": (-0.9, 0.9), "wrong": (-0.5, 0.5), "broken": (-0.4, 0.4), "poor": (-0.4, 0.6),
    "disappointed": (-0.75, 0.75), "useless": (-0.5, 0.5),
}

_WORD_RE = re.compile(r"[a-z']+")


def sentiment_scores(text: str) -> tuple:
    """(polarity, subjectivity) as lexicon means; (0, 0) when nothing matches."""
    hits = [SENTIMENT_LEXICON[w] for w in _WORD_RE.findall(text.lower()) if w in SENTIMENT_LEXICON]
    if not hits:
        return 0.0, 0.0
    pol = sum(h[0] for h in hits) / len(hits)
    sub = sum(h[1] for h in hits) / len(hits)
    return pol, sub


def extract_content_features(m: Message) -> dict:
    pol, sub = sentiment_scores(m.text)
    return {
        "num_chars": float(len(m.text)),
        "num_hashtags": float(len(message_hashtags(m))),
        "num_links": float(len(message_links(m))),
        "num_mentions": float(len(message_mentions(m))),
        "is_retweet": 1.0 if m.is_retweet else 0.0,
        "polarity": pol,
        "subjectivity": sub,
    }


def extract_user_features_sequential(messages: list, known_labels: dict) -> list:
    """Per-message user features from strictly earlier messages in the stream.

    `messages` must be sorted by (timestamp, id). Every feature for position i
    is a function of positions < i only, so appending future messages never
    changes past features. Label-derived features (black/whitelist) see only
    the ids present in `known_labels` (the training period).
    """

    class _UserState:
        __slots__ = ("count", "n_hashtag", "n_mention", "n_link", "n_spam", "n_ham",
                     "len_sum", "len_max", "len_min")

        def __init__(self):
            self.count = 0
            self.n_hashtag = 0
            self.n_mention = 0
            self.n_link = 0
            self.n_spam = 0
            self.n_ham = 0
            self.len_sum = 0.0
            self.len_max = 0.0
            self.len_min = 0.0

    for prev, cur in zip(messages, messages[1:]):
        if (prev.timestamp, prev.id) > (cur.timestamp, cur.id):
            raise DataError("messages must be sorted by (timestamp, id) for sequential features")

    users: dict = {}
    tracks: Counter = Counter()
    out = []
    for m in messages:
        st = users.get(m.user_id)
        if st is None:
            st = users[m.user_id] = _UserState()
        if st.count:
            feats = {
                "user_msgs": float(st.count),
                "user_hashtag_ratio": st.n_hashtag / st.count,
                "user_mention_ratio": st.n_mention / st.count,
                "user_link_ratio": st.n_link / st.count,
                "user_len_max": st.len_max,
                "user_len_min": st.len_min,
                "user_len_mean": st.len_sum / st.count,
            }
        else:
            feats = {
                "user_msgs": 0.0,
                "user_hashtag_ratio": 0.0,
                "user_mention_ratio": 0.0,
                "user_link_ratio": 0.0,
                "user_len_max": 0.0,
                "user_len_min": 0.0,
                "user_len_mean": 0.0,
            }
        feats["user_blacklist"] = 1.0 if st.n_spam >= BLACKLIST_SPAM_THRESHOLD else 0.0
        feats["user_whitelist"] = 1.0 if st.n_ham >= WHITELIST_HAM_THRESHOLD else 0.0
        feats["track_msgs"] = float(tracks[m.target_id]) if m.target_id else 0.0
        out.append(feats)

        # fold the current message into the running state
        length = float(len(m.text))
        st.len_max = length if st.count == 0 else max(st.len_max, length)
        st.len_min = length if st.count == 0 else min(st.len_min, length)
        st.len_sum += length
        st.count += 1
        if message_hashtags(m):
            st.n_hashtag += 1
        if message_mentions(m):
            st.n_mention += 1
        if message_links(m):
            st.n_link += 1
        label = known_labels.get(m.id)
        if label == 1:
            st.n_spam += 1
        elif label == 0:
            st.n_ham += 1
        if m.target_id:
            tracks[m.target_id] += 1
    return out


# --- follower graph and graph features ---

class FollowerGraph:
    """Directed follow graph; self-loops dropped, parallel edges collapsed."""

    def __init__(self):
        self.out_adj: dict = {}
        self.in_adj: dict = {}

    def add_node(self, v: str):
        self.out_adj.setdefault(v, set())
        self.in_adj.setdefault(v, set())

    def add_edge(self, follower: str, followee: str):
        if follower == followee:
            return
        self.add_node(follower)
        self.add_node(followee)
        self.out_adj[follower].add(followee)
        self.in_adj[followee].add(follower)

    @property
    def nodes(self) -> list:
        return sorted(self.out_adj)

    def n_edges(self) -> int:
        return sum(len(s) for s in self.out_adj.values())

    def undirected_adj(self) -> dict:
        return {v: self.out_adj[v] | self.in_adj[v] for v in self.out_adj}


def build_follower_graph(follows: list) -> FollowerGraph:
    g = FollowerGraph()
    for a, b in follows:
        g.add_edge(a, b)
    return g


def pagerank(g: FollowerGraph, damping: float = 0.85, tol: float = 1e-8, max_iter: int = 200):
    """Power iteration with uniform teleport; dangling mass spread uniformly.

    Returns (scores, converged). Scores sum to 1.
    """
    nodes = g.nodes
    n = len(nodes)
    if n == 0:
        raise DataError("pagerank requires a non-empty graph")
    index = {v: i for i, v in enumerate(nodes)}
    out_deg = np.array([len(g.out_adj[v]) for v in nodes], dtype=float)
    # sparse column-stochastic transition for the non-dangling part
    rows, cols = [], []
    for v in nodes:
        for w in g.out_adj[v]:
            rows.append(index[w])
            cols.append(index[v])
    data = np.ones(len(rows))
    adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    inv_out = np.where(out_deg > 0, 1.0 / np.maximum(out_deg, 1.0), 0.0)
    dangling = out_deg == 0

    r = np.full(n, 1.0 / n)
    converged = False
    for _ in range(max_iter):
        spread = adj @ (r * inv_out)
        dangling_mass = r[dangling].sum()
        new_r = (1.0 - damping) / n + damping * (spread + dangling_mass / n)
        if np.abs(new_r - r).sum() < tol:
            r = new_r
            converged = True
            break
        r = new_r
    if not converged:
        log.warning("pagerank did not converge in %d iterations", max_iter)
    return {v: float(r[index[v]]) for v in nodes}, converged


def triangle_count(g: FollowerGraph) -> dict:
    """Triangles per node on the undirected projection."""
    adj = g.undirected_adj()
    counts = {}
    for v, nbrs in adj.items():
        t = 0
        for u in nbrs:
            t += len(nbrs & adj[u])
        counts[v] = t // 2
    return counts


def k_core(g: FollowerGraph) -> dict:
    """Core number per node: the pruning level at which the node is removed."""
    adj = {v: set(nbrs) for v, nbrs in g.undirected_adj().items()}
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    core = {}
    remaining = set(adj)
    k = 0
    while remaining:
        peel = [v for v in remaining if deg[v] <= k]
        if not peel:
            k += 1
            continue
        while peel:
            v = peel.pop()
            core[v] = k
            remaining.discard(v)
            for u in adj[v]:
                if u in remaining:
                    deg[u] -= 1
                    if deg[u] <= k and core.get(u) is None and u not in peel:
                        peel.append(u)
            adj[v] = set()
    return core


def degrees(g: FollowerGraph) -> dict:
    """Node -> (in_degree, out_degree) on the directed graph."""
    return {v: (len(g.in_adj[v]), len(g.out_adj[v])) for v in g.out_adj}


def compute_graph_feature_table(g: FollowerGraph) -> dict:
    """Per-user graph feature map; users absent from the graph get all zeros."""
    if not g.out_adj:
        return {}
    pr, _ = pagerank(g)
    tri = triangle_count(g)
    cores = k_core(g)
    degs = degrees(g)
    table = {}
    for v in g.nodes:
        din, dout = degs[v]
        table[v] = {
            "pagerank": pr[v],
            "triangle_count": float(tri[v]),
            "k_core": float(cores[v]),
            "in_degree": float(din),
            "out_degree": float(dout),
        }
    return table


# --- n-gram vocabulary ---

def char_ngrams(text: str, n: int) -> list:
    return [text[i:i + n] for i in range(len(text) - n + 1)]


def fit_ngram_vocabulary(texts: list, n: int = 3, top_k: int = 10000) -> list:
    """Top character n-grams of the normalized texts by raw term frequency.

    Ties broken lexicographically; the returned order is the column order.
    """
    counts: Counter = Counter()
    for t in texts:
        counts.update(char_ngrams(normalize_text(t), n))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = [gram for gram, _ in ranked[:top_k]]
    if not vocab:
        log.warning("empty n-gram vocabulary: no training text")
    return vocab


def ngram_features(texts: list, vocabulary: list, n: int = 3) -> sp.csr_matrix:
    """Binary presence matrix over the fitted vocabulary; OOV grams are ignored."""
    index = {gram: j for j, gram in enumerate(vocabulary)}
    rows, cols = [], []
    for i, t in enumerate(texts):
        seen = set()
        for gram in char_ngrams(normalize_text(t), n):
            j = index.get(gram)
            if j is not None and j not in seen:
                seen.add(j)
                rows.append(i)
                cols.append(j)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(len(texts), len(vocabulary)))


# --- assembled feature matrix ---

@dataclass
class FeatureMatrix:
    row_ids: list
    column_names: list
    matrix: sp.csr_matrix

    @property
    def column_index(self) -> dict:
        return {name: j for j, name in enumerate(self.column_names)}

    @property
    def shape(self):
        return self.matrix.shape

    def rows(self, a: int, b: int) -> "FeatureMatrix":
        """Rows a to b (exclusive)."""
        return FeatureMatrix(self.row_ids[a:b], self.column_names, self.matrix[a:b])


def hstack_features(fm: FeatureMatrix, extra_columns: list, extra: sp.spmatrix) -> FeatureMatrix:
    stacked = sp.hstack([fm.matrix, sp.csr_matrix(extra)], format="csr")
    return FeatureMatrix(fm.row_ids, list(fm.column_names) + list(extra_columns), stacked)


def scalable_columns(column_names: list) -> list:
    """Dense numeric columns the classifier should standardize."""
    return [c for c in column_names if c not in BINARY_COLUMNS and not c.startswith(NGRAM_PREFIX)]


MATRIX_FORMAT = "relspam-features v2"


def write_feature_matrix(path, fm: FeatureMatrix) -> None:
    """One uncompressed npz archive: the canonical CSR arrays (`data`, `indices`,
    `indptr`, `shape`) and `header`, the UTF-8 JSON of the format tag, row ids
    and column names. Written through an open file so numpy adds no suffix.
    """
    matrix = sp.csr_matrix(fm.matrix, dtype=np.float64, copy=True)
    matrix.sum_duplicates()
    matrix.sort_indices()
    header = json.dumps({"format": MATRIX_FORMAT, "rows": fm.row_ids, "columns": fm.column_names},
                        ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(header, dtype=np.uint8), data=matrix.data,
                 indices=matrix.indices, indptr=matrix.indptr,
                 shape=np.array(matrix.shape, dtype=np.int64))


def read_feature_matrix(path) -> FeatureMatrix:
    """Read a `write_feature_matrix` file; anything else raises `DataError`."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
            header = json.loads(archive["header"].tobytes().decode("utf-8"))
            data, indices, indptr, shape = (archive[k] for k in ("data", "indices", "indptr", "shape"))
        if header["format"] != MATRIX_FORMAT:
            raise ValueError(f"format {header['format']!r}")
        row_ids, columns = header["rows"], header["columns"]
        if shape.tolist() != [len(row_ids), len(columns)]:
            raise ValueError(f"shape {shape.tolist()} does not match the header")
        matrix = sp.csr_matrix((data, indices, indptr), shape=(len(row_ids), len(columns)))
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"not a {MATRIX_FORMAT} feature matrix: {path} ({exc}); "
                        "rerun the featurize stage") from exc
    return FeatureMatrix(row_ids, columns, matrix)


@dataclass
class FeatureConfig:
    mode: str = "full"            # "full" or "limited"
    limited_drop: str = "ngrams"  # feature family removed in limited mode: "ngrams" or "graph"
    ngram_n: int = 3
    ngram_top_k: int = 10000

    def uses_ngrams(self) -> bool:
        return not (self.mode == "limited" and self.limited_drop == "ngrams")

    def uses_graph(self) -> bool:
        return not (self.mode == "limited" and self.limited_drop == "graph")


class FeaturePipeline:
    """Fit on training data only; transform any chronologically sorted slice.

    The column dictionary is frozen at fit time, so train / validation / test
    matrices of one experiment always align. `graph_table` maps a user id to
    its follower-graph features (`compute_graph_feature_table`).
    """

    def __init__(self, config: FeatureConfig | None = None, graph_table: dict | None = None):
        self.config = config or FeatureConfig()
        self.vocabulary: list = []
        self.graph_table: dict = graph_table or {}
        self._fitted = False

    def fit(self, train_messages: list) -> "FeaturePipeline":
        cfg = self.config
        if cfg.uses_ngrams():
            self.vocabulary = fit_ngram_vocabulary(
                [m.text for m in train_messages], n=cfg.ngram_n, top_k=cfg.ngram_top_k)
        self._fitted = True
        return self

    @property
    def column_names(self) -> list:
        cols = list(CONTENT_COLUMNS) + list(USER_COLUMNS)
        if self.config.uses_graph():
            cols += list(GRAPH_COLUMNS)
        if self.config.uses_ngrams():
            cols += [NGRAM_PREFIX + g for g in self.vocabulary]
        return cols

    def transform(self, messages_sorted: list, known_labels: dict) -> FeatureMatrix:
        if not self._fitted:
            raise DataError("FeaturePipeline.transform called before fit")
        cfg = self.config
        n = len(messages_sorted)
        user_rows = extract_user_features_sequential(messages_sorted, known_labels)

        dense_cols = list(CONTENT_COLUMNS) + list(USER_COLUMNS)
        if cfg.uses_graph():
            dense_cols += list(GRAPH_COLUMNS)
        dense = np.zeros((n, len(dense_cols)))
        for i, m in enumerate(messages_sorted):
            row = extract_content_features(m)
            row.update(user_rows[i])
            if cfg.uses_graph():
                row.update(self.graph_table.get(m.user_id) or dict.fromkeys(GRAPH_COLUMNS, 0.0))
            for j, c in enumerate(dense_cols):
                dense[i, j] = row[c]

        blocks = [sp.csr_matrix(dense)]
        if cfg.uses_ngrams():
            blocks.append(ngram_features([m.text for m in messages_sorted], self.vocabulary, n=cfg.ngram_n))
        matrix = sp.hstack(blocks, format="csr") if len(blocks) > 1 else blocks[0]
        return FeatureMatrix([m.id for m in messages_sorted], self.column_names, matrix)
