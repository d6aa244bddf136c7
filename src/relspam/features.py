"""Independent-model features: content, sequential user behavior, follower-graph
scores and character n-grams. Each feature family is a block of columns whose
row i is the message at position i of a chronologically sorted slice, and
`feature_matrix` stacks the blocks into one sparse matrix whose n-gram columns
come from the training rows alone. A subset's matrix holds its messages in
chronological order, so a slice of the subset is a range of rows
(`FeatureMatrix.rows`).

The matrix is a `CSR`, the one form of a sparse matrix in this package:
numpy arrays in compressed sparse row layout, with the products the
classifier's fit needs. Each sum in a product adds its terms in stored order,
the order of increasing column in a row and of increasing row in a column.

A matrix reads a `MessageTable`, which holds each text split and normalized
once: the content block counts its hashtag, link and mention keys, which the
user block reuses, and the n-gram vocabulary and block read its normalized
texts. Its character 3-grams are int64 codes c0·2⁴² + c1·2²¹ + c2, read
with numpy from the UTF-32 of the normalized texts: code points are below
2²¹, so codes order as the strings do.

The graph block comes from one CSR follow matrix A (`follower_graph`): PageRank
by power iteration, degrees as A's column and row counts, and triangles and
core numbers on its undirected projection.
"""

from __future__ import annotations

import heapq
import logging
import re
from dataclasses import dataclass

import numpy as np

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


# --- sparse matrices ---

def _index_dtype(shape: tuple, nnz: int):
    return np.int32 if max(*shape, nnz) <= np.iinfo(np.int32).max else np.int64


def _sums(bins: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The n sums of `weights` by bin, each added in order: floats, which
    np.bincount gives as ints when there is no weight."""
    return np.bincount(bins, weights=weights, minlength=n).astype(float, copy=False)


@dataclass(frozen=True, eq=False)
class CSR:
    """A matrix in compressed sparse row layout: row i holds `data[k]` in
    column `indices[k]` for k in range(indptr[i], indptr[i + 1]), its columns
    strictly increasing. The index arrays are int32 where the shape and the
    entry count allow."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @classmethod
    def from_entries(cls, rows, cols, data, shape: tuple) -> "CSR":
        """The matrix of entries given in row order, each row's columns increasing."""
        dtype = _index_dtype(shape, len(data))
        indptr = np.zeros(shape[0] + 1, dtype=dtype)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(np.asarray(data, dtype=float), np.asarray(cols, dtype=dtype), indptr,
                   (int(shape[0]), int(shape[1])))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSR":
        """The nonzero entries of a 2-D array."""
        rows, cols = np.nonzero(dense)
        return cls.from_entries(rows, cols, dense[rows, cols], dense.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _entry_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def rows(self, a: int, b: int) -> "CSR":
        """Rows a to b (exclusive), sharing this matrix's arrays."""
        lo, hi = self.indptr[a], self.indptr[b]
        return CSR(self.data[lo:hi], self.indices[lo:hi], self.indptr[a:b + 1] - lo,
                   (b - a, self.shape[1]))

    def hstack(self, right: "CSR") -> "CSR":
        """The columns of `right`, which has as many rows, after these."""
        shape = (self.shape[0], self.shape[1] + right.shape[1])
        dtype = _index_dtype(shape, self.nnz + right.nnz)
        # row i's entries: its own from indptr[i] + right.indptr[i], then right's
        left = np.arange(self.nnz) + np.repeat(right.indptr[:-1], np.diff(self.indptr))
        after = np.arange(right.nnz) + np.repeat(self.indptr[1:], np.diff(right.indptr))
        data = np.empty(self.nnz + right.nnz)
        indices = np.empty(len(data), dtype=dtype)
        data[left], data[after] = self.data, right.data
        indices[left], indices[after] = self.indices, right.indices.astype(dtype) + self.shape[1]
        return CSR(data, indices, np.add(self.indptr, right.indptr, dtype=dtype), shape)

    def dot(self, w: np.ndarray) -> np.ndarray:
        """X @ w, each row summed in stored order."""
        return _sums(self._entry_rows(), self.data * w[self.indices], self.shape[0])

    def products(self) -> tuple:
        """(X @ ·, Xᵀ @ ·) as closures, each sum in stored order, for a solver
        that calls them many times. X @ w takes the entries column by column,
        as Xᵀ @ u takes them row by row, so that w and u are repeated, not
        gathered."""
        n, d = self.shape
        # by column, then row; in the narrowest dtype that holds the columns, a radix sort
        order = np.argsort(self.indices.astype(np.min_scalar_type(d)), kind="stable")
        rows, data = self._entry_rows()[order], self.data[order]
        columns = self.indices.astype(np.intp)  # the index type np.bincount would cast to
        per_column, per_row = np.bincount(columns, minlength=d), np.diff(self.indptr)

        def product(w):
            return _sums(rows, data * np.repeat(w, per_column), n)

        def adjoint(u):
            return _sums(columns, self.data * np.repeat(u, per_row), d)
        return product, adjoint

    def dense_columns(self, columns) -> np.ndarray:
        """The (rows, len(columns)) array of the given distinct columns, in
        column-major order: the layout that a column's mean and std are taken
        in sets their last bits, and so the fit's."""
        position = np.full(self.shape[1], -1)
        position[columns] = np.arange(len(columns))
        out = np.zeros((self.shape[0], len(columns)), order="F")
        at = position[self.indices]
        hit = at >= 0
        out[self._entry_rows()[hit], at[hit]] = self.data[hit]
        return out


# --- follower graph and graph features ---

def _adjacency(ends: np.ndarray, n: int) -> CSR:
    """The 0/1 n × n matrix of the (row, column) pairs `ends`, repeats counted once."""
    codes = np.unique(ends[:, 0] * n + ends[:, 1])
    return CSR.from_entries(codes // n, codes % n, np.ones(len(codes)), (n, n))


def follower_graph(follows: list) -> tuple:
    """(users, A): the sorted users of the follows and their CSR follow matrix,
    A[i, j] = 1 when user i follows user j. Self-follows are dropped and a
    repeated pair counts once."""
    pairs = [(a, b) for a, b in follows if a != b]
    users = sorted({u for pair in pairs for u in pair})
    index = {u: i for i, u in enumerate(users)}
    ends = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
    return users, _adjacency(ends, len(users))


def pagerank(A: CSR, tol: float = 1e-8, max_iter: int = 200):
    """Power iteration over the follow matrix `A` with uniform teleport and
    `PAGERANK_DAMPING`; dangling mass spread uniformly.

    Returns (scores, converged): an array over A's nodes that sums to 1. The
    graph has a node: `compute_graph_feature_table` calls it on no other.
    """
    n = A.shape[0]
    out_deg = np.diff(A.indptr).astype(float)
    _, followed = A.products()  # Aᵀ @ x sums, for each user, x over its followers
    inv_out = np.where(out_deg > 0, 1.0 / np.maximum(out_deg, 1.0), 0.0)
    dangling = out_deg == 0

    r = np.full(n, 1.0 / n)
    converged = False
    for _ in range(max_iter):
        spread = followed(r * inv_out)
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


def concatenated_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The ranges starts[i] to stops[i] (exclusive), one after another."""
    lengths = stops - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _triangles(S: CSR) -> np.ndarray:
    """Triangles per node of the 0/1 undirected graph `S` (Latapy, 2008).

    Each edge runs from the lower to the higher node in (degree, index) order,
    so a triangle a < b < c is a→b, a→c, b→c, and no node has over sqrt(2m)
    out-edges. A triangle is found once, at its lowest node a, as a pair of
    a's out-edges whose heads b < c are joined: the followers of a hub rank
    below it, so they are never paired up.
    """
    n = S.shape[0]
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(np.diff(S.indptr), kind="stable")] = np.arange(n)
    tail, head = rank[S._entry_rows()], rank[S.indices]
    up = tail < head
    codes = np.sort(tail[up] * n + head[up])  # the out-edges, by tail then head
    tail, head = codes // n, codes % n
    # each out-edge pairs with the later out-edges of its tail
    edge, ends = np.arange(len(codes)), np.searchsorted(tail, tail, side="right")
    first, second = np.repeat(edge, ends - edge - 1), concatenated_ranges(edge + 1, ends)
    b, c = head[first], head[second]
    joined = np.isin(b * n + c, codes)
    counts = np.bincount(np.concatenate([tail[first][joined], b[joined], c[joined]]),
                         minlength=n).astype(float)
    return counts[rank]


def _core_numbers(S: CSR) -> np.ndarray:
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
    ends = np.column_stack([A._entry_rows(), A.indices])
    S = _adjacency(np.concatenate([ends, ends[:, ::-1]]), len(users))  # the undirected projection
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


def ngram_features(texts: list, vocabulary: list) -> CSR:
    """Binary presence matrix of normalized texts over the fitted vocabulary;
    OOV grams are ignored."""
    shape = (len(texts), len(vocabulary))
    if not vocabulary:
        return CSR.from_dense(np.zeros(shape))
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
    dtype = _index_dtype(shape, len(indices))
    return CSR(np.ones(len(indices)), indices.astype(dtype, copy=False),
               np.cumsum(np.concatenate(counts), dtype=dtype), shape)


# --- assembled feature matrix ---

@dataclass
class FeatureMatrix:
    """Row i is the message at position i of a chronologically sorted slice."""

    column_names: list
    matrix: CSR

    @property
    def column_index(self) -> dict:
        return {name: j for j, name in enumerate(self.column_names)}

    @property
    def shape(self):
        return self.matrix.shape

    def rows(self, a: int, b: int) -> "FeatureMatrix":
        """Rows a to b (exclusive)."""
        return FeatureMatrix(self.column_names, self.matrix.rows(a, b))


def scalable_columns(column_names: list) -> list:
    """Dense numeric columns the classifier standardizes: all but indicators
    and n-grams. The stacked model's `pr_*` ratio columns are among them, which
    keeps ridge shrinkage from flattening their small within-slice variance."""
    return [c for c in column_names if c not in BINARY_COLUMNS and not c.startswith(NGRAM_PREFIX)]


MATRIX_FORMAT = "relspam-features v3"


def write_feature_matrix(path, fm: FeatureMatrix) -> None:
    """A `write_artifact` archive, deflated at level 1: the CSR arrays (`data`,
    `indices`, `indptr`, `shape`) and a header of the column names."""
    matrix = fm.matrix
    write_artifact(path, MATRIX_FORMAT, {"columns": fm.column_names},
                   {"data": matrix.data, "indices": matrix.indices, "indptr": matrix.indptr,
                    "shape": np.array(matrix.shape, dtype=np.int64)})


def _checked_csr(data, indices, indptr, shape: tuple) -> CSR:
    """The `CSR` of read arrays; a `ValueError` unless they keep its layout."""
    if data.dtype != np.float64 or indices.dtype.kind != "i" or indptr.dtype.kind != "i":
        raise ValueError(f"arrays of dtypes {data.dtype}, {indices.dtype} and {indptr.dtype}")
    if (data.ndim != 1 or indices.shape != data.shape or indptr.shape != (shape[0] + 1,)
            or indptr[0] != 0 or indptr[-1] != len(data) or (np.diff(indptr) < 0).any()):
        raise ValueError(f"indptr does not split {len(data)} entries into {shape[0]} rows")
    same_row = np.diff(np.repeat(np.arange(shape[0]), np.diff(indptr))) == 0
    if len(indices) and (indices.min() < 0 or indices.max() >= shape[1]
                         or ((np.diff(indices) <= 0) & same_row).any()):
        raise ValueError("a row's columns are out of range or not increasing")
    dtype = _index_dtype(shape, len(data))
    return CSR(data, indices.astype(dtype, copy=False), indptr.astype(dtype, copy=False), shape)


def read_feature_matrix(path) -> FeatureMatrix:
    """Read a `write_feature_matrix` file; anything else, arrays that break
    the `CSR` layout included, raises `DataError`."""
    def parse(header, arrays):
        columns, shape = header["columns"], arrays["shape"]
        if shape.shape != (2,) or shape[1] != len(columns):
            raise ValueError(f"shape {shape.tolist()} does not match the header")
        return FeatureMatrix(columns, _checked_csr(arrays["data"], arrays["indices"],
                                                   arrays["indptr"], (int(shape[0]), len(columns))))
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
    matrix = CSR.from_dense(np.hstack(blocks))
    if ngram_top_k is not None:
        vocabulary = fit_ngram_vocabulary(messages.normalized[:n_train], ngram_top_k)
        matrix = matrix.hstack(ngram_features(messages.normalized, vocabulary))
        columns += [NGRAM_PREFIX + g for g in vocabulary]
    return FeatureMatrix(columns, matrix)
