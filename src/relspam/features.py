"""Independent-model features: content, sequential user behavior, follower-graph
scores and character n-grams. Each feature family is a block of columns whose
row i is the message at position i of a chronologically sorted slice, and
`feature_matrix` stacks the blocks into one sparse matrix whose n-gram columns
come from the training rows alone. A subset's matrix holds its messages in
chronological order, so a slice of the subset is a range of rows
(`FeatureMatrix.rows`).

A matrix reads a `MessageTable`, which holds each text split and normalized
once: the content block counts its hashtag, link and mention keys, which the
user block reuses, and the n-gram vocabulary and block read its normalized
texts. Its character 3-grams are int64 codes c0·2⁴² + c1·2²¹ + c2, read
with numpy from the UTF-32 of the normalized texts: code points are below
2²¹, so codes order as the strings do.

The graph block comes from one CSR follow matrix A (`follower_graph`): PageRank
by power iteration, degrees as A's column and row counts, and triangles and
core numbers on the undirected A + Aᵀ.
"""

from __future__ import annotations

import heapq
import logging
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data_model import (
    HAM,
    SPAM,
    DataError,
    MessageTable,
    read_artifact,
    write_artifact,
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
NGRAM_N = 3  # characters per n-gram; at most 3, for NGRAM_N 21-bit code points fit an int64

BLACKLIST_SPAM_THRESHOLD = 3
WHITELIST_HAM_THRESHOLD = 10
PAGERANK_DAMPING = 0.85  # the share of rank that follows the edges; the rest teleports

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


def extract_content_features(messages: MessageTable) -> np.ndarray:
    """The content block: a row of `CONTENT_COLUMNS` per message. A hashtag,
    link or mention counts when it is a group key (`MessageTable.entities`)."""
    return np.array([(len(text), *map(len, entities), retweet, *sentiment_scores(text))
                     for text, entities, retweet in zip(messages.texts, messages.entities,
                                                        messages.retweets.tolist())],
                    dtype=float).reshape(len(messages), len(CONTENT_COLUMNS))


def _codes(keys) -> np.ndarray:
    """Each key's number, in order of first appearance."""
    number: dict = {}
    return np.array([number.setdefault(k, len(number)) for k in keys], dtype=np.int64)


def _earlier(values, key: np.ndarray, op: np.ufunc) -> np.ndarray:
    """Per position, `op` folded in position order over the rows of `values`
    at the earlier positions of the same key; 0 where there is none."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape)
    order = np.argsort(key, kind="stable")
    for run in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        out[run[1:]] = op.accumulate(values[run[:-1]])
    return out


def extract_user_features_sequential(messages: MessageTable, labels,
                                     content: np.ndarray) -> np.ndarray:
    """The user block: a row of `USER_COLUMNS` per message, from strictly
    earlier messages in the stream.

    `labels` holds a label per message, -1 where it is not known. Row i is a
    function of positions < i only, so appending future messages never
    changes past rows. The label-derived columns (black/whitelist) count only
    the known labels (the training period's). Lengths and hashtag, link and
    mention presence are read from the messages' content block, `content`.
    """
    labels = np.asarray(labels)
    if labels.shape != (len(messages),):
        raise DataError(f"{labels.size} labels for {len(messages)} messages")
    user = _codes(messages.user_ids)
    length, n_hashtags, n_links, n_mentions = content[:, :4].T
    # what each message adds to its user's history
    history = np.column_stack([np.ones(len(messages)), n_hashtags > 0, n_mentions > 0,
                               n_links > 0, labels == SPAM, labels == HAM, length])
    count, hashtags, mentions, links, spam, ham, length_sum = _earlier(history, user, np.add).T
    seen = np.maximum(count, 1.0)  # a user's first message has no history: its ratios are 0
    tracked = np.array(list(map(bool, messages.target_ids)), dtype=float)
    return np.column_stack([
        count, hashtags / seen, mentions / seen, links / seen,
        spam >= BLACKLIST_SPAM_THRESHOLD, ham >= WHITELIST_HAM_THRESHOLD,
        _earlier(length, user, np.maximum), _earlier(length, user, np.minimum), length_sum / seen,
        tracked * _earlier(tracked, _codes(messages.target_ids), np.add)])


# --- follower graph and graph features ---

def follower_graph(follows: list) -> tuple:
    """(users, A): the sorted users of the follows and their CSR follow matrix,
    A[i, j] = 1 when user i follows user j. Self-follows are dropped and a
    repeated pair counts once."""
    pairs = [(a, b) for a, b in follows if a != b]
    users = sorted({u for pair in pairs for u in pair})
    index = {u: i for i, u in enumerate(users)}
    ends = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
    A = sp.csr_matrix((np.ones(len(pairs)), ends.T), shape=(len(users), len(users)))
    return users, A.sign()  # the conversion summed repeated pairs


def pagerank(A: sp.csr_matrix, tol: float = 1e-8, max_iter: int = 200):
    """Power iteration over the follow matrix `A` with uniform teleport and
    `PAGERANK_DAMPING`; dangling mass spread uniformly.

    Returns (scores, converged): an array over A's nodes that sums to 1.
    """
    n = A.shape[0]
    if n == 0:
        raise DataError("pagerank requires a non-empty graph")
    out_deg = np.diff(A.indptr).astype(float)
    adj = A.T.tocsr()  # column-stochastic once scaled by inv_out: row w sums w's followers
    inv_out = np.where(out_deg > 0, 1.0 / np.maximum(out_deg, 1.0), 0.0)
    dangling = out_deg == 0

    r = np.full(n, 1.0 / n)
    converged = False
    for _ in range(max_iter):
        spread = adj @ (r * inv_out)
        dangling_mass = r[dangling].sum()
        new_r = (1.0 - PAGERANK_DAMPING) / n + PAGERANK_DAMPING * (spread + dangling_mass / n)
        if np.abs(new_r - r).sum() < tol:
            r = new_r
            converged = True
            break
        r = new_r
    if not converged:
        log.warning("pagerank did not converge in %d iterations", max_iter)
    return r, converged


def _triangles(S: sp.csr_matrix) -> np.ndarray:
    """Triangles per node of the 0/1 undirected graph `S` (Latapy, 2008).

    U holds each edge from the lower to the higher (degree, index) node, so a
    triangle a < b < c is a→b, a→c, b→c, and no node has over sqrt(2m)
    out-edges. Neither U @ U (a→b→c, at a, c) nor Uᵀ @ U (a→b and a→c, at
    b, c) pairs up the followers of a hub: they rank below it.
    """
    order = np.argsort(np.diff(S.indptr), kind="stable")
    U = sp.triu(S[order][:, order], k=1, format="csr")
    lowest_top, middle_top = (U @ U).multiply(U), (U.T @ U).multiply(U)
    counts = np.empty(len(order))
    counts[order] = lowest_top.sum(1).A1 + lowest_top.sum(0).A1 + middle_top.sum(1).A1
    return counts


def _core_numbers(S: sp.csr_matrix) -> np.ndarray:
    """Core number per node of the 0/1 undirected graph `S`: peel a node of least
    remaining degree until none is left (Batagelj & Zaversnik, 2003); a node's
    core is the largest degree peeled up to it."""
    indptr, indices = S.indptr.tolist(), S.indices.tolist()
    degree = np.diff(S.indptr).tolist()
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    core = [-1] * len(degree)
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if core[v] >= 0 or d != degree[v]:
            continue  # peeled already, or a stale degree
        k = max(k, d)
        core[v] = k
        for u in indices[indptr[v]:indptr[v + 1]]:
            if core[u] < 0:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return np.array(core, dtype=float)


def compute_graph_feature_table(follows: list) -> dict:
    """Per-user graph features: user -> a row of `GRAPH_COLUMNS`, for every
    user in a follow pair that is not a self-follow. Users absent from the
    graph get all zeros in the graph block."""
    users, A = follower_graph(follows)
    if not users:
        return {}
    S = (A + A.T).sign()  # the undirected projection
    rows = np.column_stack([pagerank(A)[0], _triangles(S), _core_numbers(S),
                            np.bincount(A.indices, minlength=len(users)), np.diff(A.indptr)])
    return dict(zip(users, map(tuple, rows.tolist())))


# --- n-gram vocabulary ---

# texts per block of the presence matrix: small arrays reuse freed heap, so peak RSS holds
_CHUNK = 256


def _gram_codes(texts: list) -> tuple:
    """(row, code) of every character `NGRAM_N`-gram of the texts, in text order."""
    chars = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    row = np.repeat(np.arange(len(texts), dtype=np.int32), [len(t) for t in texts])
    n = max(len(chars) - NGRAM_N + 1, 0)
    code = np.zeros(n, dtype=np.int64)
    for k in range(NGRAM_N):
        code <<= 21
        code |= chars[k:k + n]
    whole = row[:n] == row[NGRAM_N - 1:]  # the gram lies within one text
    return row[:n][whole], code[whole]


def fit_ngram_vocabulary(texts: list, top_k: int) -> list:
    """Top `top_k` character `NGRAM_N`-grams of the texts, normalized
    (`normalize_text`) as `ngram_features` takes them, by raw term frequency.

    Ties broken lexicographically; the returned order is the column order.
    """
    grams, counts = np.unique(_gram_codes(texts)[1], return_counts=True)
    # `grams` ascend, so a stable sort by count keeps each tie in code, that is string, order
    top = grams[np.argsort(-counts, kind="stable")[:top_k]]
    chars = (top[:, None] >> 21 * np.arange(NGRAM_N - 1, -1, -1)) & ((1 << 21) - 1)
    vocab = ["".join(map(chr, gram)) for gram in chars.tolist()]
    if not vocab:
        log.warning("empty n-gram vocabulary: no training text")
    return vocab


def ngram_features(texts: list, vocabulary: list) -> sp.csr_matrix:
    """Binary presence matrix of normalized texts over the fitted vocabulary;
    OOV grams are ignored."""
    shape = (len(texts), len(vocabulary))
    if not vocabulary:
        return sp.csr_matrix(shape)
    vocab = _gram_codes(vocabulary)[1]  # a fitted gram is one code
    order = np.argsort(vocab)
    vocab = vocab[order]
    indices, counts = [np.zeros(0, np.int32)], [np.zeros(1, np.int64)]  # counts[0] opens indptr
    for a in range(0, len(texts), _CHUNK):
        chunk = texts[a:a + _CHUNK]
        row, code = _gram_codes(chunk)
        j = np.searchsorted(vocab, code).clip(max=len(vocab) - 1)
        hit = vocab[j] == code
        cells = np.sort(row[hit] * np.int64(len(vocab)) + order[j[hit]])  # np.unique hashes: slower
        row, col = np.divmod(cells[np.diff(cells, prepend=-1) != 0], len(vocab))
        indices.append(col.astype(np.int32))
        counts.append(np.bincount(row, minlength=len(chunk)))
    indices = np.concatenate(indices)
    return sp.csr_matrix((np.ones(len(indices)), indices, np.cumsum(np.concatenate(counts))),
                         shape=shape)


# --- assembled feature matrix ---

@dataclass
class FeatureMatrix:
    """Row i is the message at position i of a chronologically sorted slice."""

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
        return FeatureMatrix(self.column_names, self.matrix[a:b])


def scalable_columns(column_names: list) -> list:
    """Dense numeric columns the classifier standardizes: all but indicators
    and n-grams. The stacked model's `pr_*` ratio columns are among them, which
    keeps ridge shrinkage from flattening their small within-slice variance."""
    return [c for c in column_names if c not in BINARY_COLUMNS and not c.startswith(NGRAM_PREFIX)]


MATRIX_FORMAT = "relspam-features v3"


def write_feature_matrix(path, fm: FeatureMatrix) -> None:
    """A `write_artifact` archive, deflated at level 1: the canonical CSR arrays
    (`data`, `indices`, `indptr`, `shape`) and a header of the column names."""
    matrix = sp.csr_matrix(fm.matrix, dtype=np.float64, copy=True)
    matrix.sum_duplicates()
    matrix.sort_indices()
    write_artifact(path, MATRIX_FORMAT, {"columns": fm.column_names},
                   {"data": matrix.data, "indices": matrix.indices, "indptr": matrix.indptr,
                    "shape": np.array(matrix.shape, dtype=np.int64)})


def read_feature_matrix(path) -> FeatureMatrix:
    """Read a `write_feature_matrix` file; anything else raises `DataError`."""
    def parse(header, arrays):
        columns, shape = header["columns"], arrays["shape"]
        if len(shape) != 2 or shape[1] != len(columns):
            raise ValueError(f"shape {shape.tolist()} does not match the header")
        data, indices, indptr = (arrays[k] for k in ("data", "indices", "indptr"))
        return FeatureMatrix(columns, sp.csr_matrix((data, indices, indptr),
                                                    shape=(int(shape[0]), len(columns))))
    return read_artifact(path, MATRIX_FORMAT, "featurize", parse)


def feature_matrix(messages: MessageTable, n_train: int, labels, graph_table: dict | None,
                   ngram_top_k: int | None) -> FeatureMatrix:
    """The matrix of a message table, a row per message, with
    `labels` as `extract_user_features_sequential` takes them. `graph_table`
    maps a user id to its row of the graph block (`compute_graph_feature_table`),
    and None drops the block. The `ngram_top_k` n-grams of the first `n_train`
    texts make the n-gram block, and None drops it."""
    content = extract_content_features(messages)
    blocks = [content, extract_user_features_sequential(messages, labels, content)]
    columns = list(CONTENT_COLUMNS) + list(USER_COLUMNS)
    if graph_table is not None:
        absent = (0.0,) * len(GRAPH_COLUMNS)
        blocks.append(np.array([graph_table.get(user, absent) for user in messages.user_ids],
                               dtype=float).reshape(len(messages), len(GRAPH_COLUMNS)))
        columns += GRAPH_COLUMNS
    blocks = [sp.csr_matrix(np.hstack(blocks))]
    if ngram_top_k is not None:
        vocabulary = fit_ngram_vocabulary(messages.normalized[:n_train], ngram_top_k)
        blocks.append(ngram_features(messages.normalized, vocabulary))
        columns += [NGRAM_PREFIX + g for g in vocabulary]
    return FeatureMatrix(columns, sp.hstack(blocks, format="csr"))
