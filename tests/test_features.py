import itertools
import json
import random
import string
import struct
import zipfile
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from relspam.data_model import (
    RELATION_NAMES,
    DataError,
    build_groups,
    message_table,
    normalize_link,
    normalize_text,
    relations_from_names,
    write_artifact,
)
from relspam.evaluation import ExperimentConfig
from relspam.features import (
    CONTENT_COLUMNS,
    GRAPH_COLUMNS,
    USER_COLUMNS,
    CSR,
    FeatureMatrix,
    compute_graph_feature_table,
    extract_content_features,
    extract_user_features_sequential,
    feature_matrix,
    fit_ngram_vocabulary,
    follower_graph,
    ngram_features,
    pagerank,
    read_feature_matrix,
    write_feature_matrix,
)

from tables import records_of, rows_of, scipy_of


def msg(mid, user="u", text="", ts=0, **kw):
    """The checked row of a message record."""
    return rows_of([dict(id=mid, user_id=user, text=text, timestamp=ts, **kw)])[0]


def as_table(messages):
    """The message table of checked rows."""
    return message_table(records_of(messages))


# A message's hashtags, mentions and links, each from a split of its own: the
# listed ones, else those parsed from the text. The reference for the single
# split that the content block, the user block and the group keys share.

def message_hashtags(m):
    return list(m.hashtags) if m.hashtags else [w[1:] for w in m.text.split()
                                                if w.startswith("#") and len(w) > 1]


def message_mentions(m):
    return list(m.mentions) if m.mentions else [w[1:].rstrip(string.punctuation)
                                                for w in m.text.split()
                                                if w.startswith("@") and len(w) > 1]


def message_links(m):
    return list(m.links) if m.links else [w for w in m.text.split()
                                          if w.startswith(("http://", "https://"))]


def graph_column(follows, name):
    """A column of the graph block, by name: user -> value."""
    j = GRAPH_COLUMNS.index(name)
    return {user: row[j] for user, row in compute_graph_feature_table(follows).items()}


def content(m):
    """The content block row of one message, by column name."""
    return dict(zip(CONTENT_COLUMNS, extract_content_features(as_table([m]))[0]))


def column(block, name):
    """A column of the user block, by name."""
    return block[:, USER_COLUMNS.index(name)].tolist()


def known(messages, labels):
    """A label per message from an id -> label map, -1 where it has none."""
    return np.array([labels.get(m.id, -1) for m in messages])


def assert_same_matrix(back, fm):
    """Exact equality with fm: names, shape and every array."""
    expected = fm.matrix
    assert back.column_names == fm.column_names
    assert back.matrix.shape == expected.shape
    assert np.array_equal(back.matrix.indptr, expected.indptr)
    assert np.array_equal(back.matrix.indices, expected.indices)
    assert back.matrix.data.dtype == np.float64
    assert back.matrix.data.tobytes() == expected.data.astype(np.float64).tobytes()


class TestContentFeatures:
    def test_empty_text(self):
        f = content(msg("m"))
        assert f["num_chars"] == 0
        assert f["num_hashtags"] == 0

    def test_counts_from_text(self):
        f = content(msg("m", text="check #win #free http://x.co @bob"))
        assert f["num_hashtags"] == 2
        assert f["num_links"] == 1
        assert f["num_mentions"] == 1

    def test_neutral_text_scores_zero(self):
        f = content(msg("m", text="the weather report for Tuesday"))
        assert f["polarity"] == 0.0
        assert f["subjectivity"] == 0.0

    def test_annotations_preferred_over_text(self):
        f = content(msg("m", text="no tags here", hashtags=["a", "b", "c"]))
        assert f["num_hashtags"] == 3

    def test_retweet_flag(self):
        assert content(msg("m", is_retweet=True))["is_retweet"] == 1.0


def user_rows_reference(messages, labels):
    """The user block from a running state per user and per target, one message at a time."""
    state, tracks, rows = {}, {}, []
    for m, label in zip(messages, labels):
        count, tags, mentions, links, spam, ham, total, longest, shortest = \
            state.get(m.user_id, (0,) * 9)
        seen = max(count, 1)
        rows.append([count, tags / seen, mentions / seen, links / seen, spam >= 3, ham >= 10,
                     longest, shortest, total / seen,
                     tracks.get(m.target_id, 0) if m.target_id else 0])
        n = len(m.text)
        state[m.user_id] = (count + 1, tags + bool(message_hashtags(m)),
                            mentions + bool(message_mentions(m)), links + bool(message_links(m)),
                            spam + (label == 1), ham + (label == 0), total + n,
                            max(longest, n) if count else n, min(shortest, n) if count else n)
        if m.target_id:
            tracks[m.target_id] = tracks.get(m.target_id, 0) + 1
    return np.array(rows, dtype=float)


def user_rows(table, labels):
    """The user block of `table`, read from its content block."""
    return extract_user_features_sequential(table, labels, extract_content_features(table))


class TestUserFeaturesSequential:
    def test_first_message_has_zero_count(self):
        rows = user_rows(as_table([msg("m1", user="u", ts=0)]), [-1])
        assert column(rows, "user_msgs") == [0.0]

    def test_hashtag_ratio_over_prior_messages(self):
        messages = [
            msg("m1", user="u", text="#a", ts=0),
            msg("m2", user="u", text="plain", ts=1),
            msg("m3", user="u", text="#b", ts=2),
            msg("m4", user="u", text="plain", ts=3),
            msg("m5", user="u", text="plain", ts=4),
        ]
        rows = user_rows(as_table(messages), known(messages, {}))
        assert column(rows, "user_hashtag_ratio")[4] == pytest.approx(0.5)

    def test_blacklist_after_three_prior_spam(self):
        messages = [msg(f"m{i}", user="u", ts=i) for i in range(5)]
        labels = {"m0": 1, "m1": 1, "m2": 1}
        rows = user_rows(as_table(messages), known(messages, labels))
        assert column(rows, "user_blacklist")[2] == 0.0
        assert column(rows, "user_blacklist")[3] == 1.0

    def test_whitelist_needs_ten_prior_ham(self):
        messages = [msg(f"m{i:02d}", user="u", ts=i) for i in range(12)]
        labels = {m.id: 0 for m in messages}
        rows = user_rows(as_table(messages), known(messages, labels))
        assert column(rows, "user_whitelist")[9] == 0.0
        assert column(rows, "user_whitelist")[10] == 1.0

    def test_unsorted_input_is_read_in_time_order(self):
        # the table sorts by (timestamp, id): a later message never feeds an earlier row
        table = as_table([msg("m1", text="aaaa", ts=5), msg("m2", text="a", ts=1)])
        assert table.ids == ["m2", "m1"]
        rows = user_rows(table, [-1, -1])
        assert column(rows, "user_msgs") == [0.0, 1.0]
        assert column(rows, "user_len_max") == [0.0, 1.0]

    def test_track_counts(self):
        messages = [
            msg("m1", user="a", ts=0, target_id="t1"),
            msg("m2", user="b", ts=1, target_id="t1"),
            msg("m3", user="c", ts=2, target_id="t1"),
        ]
        rows = user_rows(as_table(messages), known(messages, {}))
        assert column(rows, "track_msgs") == [0.0, 1.0, 2.0]

    def test_length_stats(self):
        messages = [
            msg("m1", user="u", text="aa", ts=0),
            msg("m2", user="u", text="aaaa", ts=1),
            msg("m3", user="u", text="x", ts=2),
        ]
        rows = user_rows(as_table(messages), known(messages, {}))
        assert column(rows, "user_len_max")[2] == 4.0
        assert column(rows, "user_len_min")[2] == 2.0
        assert column(rows, "user_len_mean")[2] == 3.0

    def test_temporal_causality_on_prefixes(self):
        rng = random.Random(11)
        messages = [
            msg(f"m{i:03d}", user=f"u{rng.randrange(6)}", text=rng.choice(["#a", "x", "@b y", "http://z.co"]),
                ts=i, target_id=rng.choice([None, "t1", "t2"]))
            for i in range(120)
        ]
        labels = known(messages, {m.id: rng.randrange(2) for m in messages[:60]})
        full = user_rows(as_table(messages), labels)
        for cut in [1, 7, 33, 80, 119]:
            prefix = user_rows(as_table(messages[:cut]), labels[:cut])
            assert np.array_equal(prefix, full[:cut])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_running_state_reference(self, seed):
        rng = random.Random(seed)
        texts = ["#a", "x", "@b y", "http://z.co", "", "#a @b http://z.co long text"]
        messages = [msg(f"m{i:03d}", user=f"u{rng.randrange(8)}", text=rng.choice(texts), ts=i,
                        target_id=rng.choice([None, "", "t1", "t2"])) for i in range(300)]
        labels = np.array([rng.choice([-1, 0, 1, 1]) for _ in messages])
        assert np.array_equal(user_rows(as_table(messages), labels),
                              user_rows_reference(messages, labels))


def reference_keys(m, relation):
    """A message's group keys under one relation, from `message_*` parses of its own."""
    if relation == "user":
        return {m.user_id}
    if relation == "text":
        return {normalize_text(m.text)} - {""}
    if relation == "link":
        return {normalize_link(u) for u in message_links(m)}
    if relation == "hashtag":
        return {h.lower() for h in message_hashtags(m)}
    if relation == "mention":
        return {x.lower() for x in message_mentions(m)}
    if relation == "track":
        return {m.target_id} - {None}
    return {(m.user_id, h.lower()) for h in message_hashtags(m)}


@pytest.mark.parametrize("seed", range(4))
def test_one_entity_parse_matches_the_message_accessors(seed):
    """The content block, the user block and every group key read a message's
    hashtags, links and mentions as `message_hashtags`, `message_links` and
    `message_mentions` do, whether they are listed, in the text, or both."""
    rng = random.Random(seed)
    words = ["#Win", "#win", "#", "@Bob,", "@bob", "@", "http://X.co/A", "https://x.co/A",
             "HTTP://x.co", "plain", "free", "e\u0301"]
    listed = {"hashtags": [[], ["Win"], ["a", "A"]], "links": [[], ["HTTP://X.CO/A"], ["y.io"]],
              "mentions": [[], ["Bob"], ["c", "d"]]}
    messages = [msg(f"m{i:03d}", user=f"u{rng.randrange(5)}", ts=i,
                    text=" ".join(rng.choices(words, k=rng.randrange(5))),
                    target_id=rng.choice([None, "t1"]),
                    **{name: rng.choice(options) for name, options in listed.items()})
                for i in range(120)]
    labels = np.array([rng.choice([-1, 0, 1]) for _ in messages])

    table = as_table(messages)
    block = extract_content_features(table)
    for name, accessor in [("num_hashtags", message_hashtags), ("num_links", message_links),
                           ("num_mentions", message_mentions)]:
        assert block[:, CONTENT_COLUMNS.index(name)].tolist() == [len(accessor(m)) for m in messages]
    user = user_rows_reference(messages, labels)
    assert np.array_equal(extract_user_features_sequential(table, labels, block), user)
    fm = feature_matrix(table, len(messages), labels, {}, None)
    width = len(CONTENT_COLUMNS)
    assert np.array_equal(scipy_of(fm.matrix).toarray()[:, width:width + len(USER_COLUMNS)], user)

    buckets = {}
    for relation in RELATION_NAMES:
        for m in messages:
            for key in reference_keys(m, relation):
                buckets.setdefault((relation, key), []).append(m.id)
    expected = [(r, k, tuple(sorted(ids))) for (r, k), ids in sorted(buckets.items()) if len(ids) > 1]
    groups = build_groups(messages, relations_from_names(RELATION_NAMES))
    assert [(g.relation, g.key, g.member_ids) for g in groups] == expected
    assert {r for r, _, _ in expected} >= {"link", "hashtag", "mention", "user_hashtag"}


class TestFollowerGraph:
    def test_parallel_edges_collapse(self):
        users, A = follower_graph([("a", "b"), ("a", "b")])
        assert users == ["a", "b"]
        assert A.nnz == 1 and scipy_of(A)[0, 1] == 1.0

    def test_self_loop_dropped(self):
        users, A = follower_graph([("a", "a")])
        assert users == [] and A.nnz == 0
        with_self_follow = compute_graph_feature_table([("a", "a"), ("a", "b")])
        assert with_self_follow == compute_graph_feature_table([("a", "b")])

    def test_reciprocal_edges_kept(self):
        users, A = follower_graph([("a", "b"), ("b", "a")])
        assert A.nnz == 2
        assert graph_column([("a", "b"), ("b", "a")], "in_degree")["a"] == 1.0
        assert graph_column([("a", "b"), ("b", "a")], "out_degree")["a"] == 1.0


def dense_pagerank_oracle(nodes, edges, damping=0.85, iters=5000):
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    A = np.zeros((n, n))
    for a, b in edges:
        if a != b:
            A[idx[b], idx[a]] = 1.0
    col = A.sum(axis=0)
    P = np.where(col > 0, A / np.maximum(col, 1.0), 1.0 / n)
    G = damping * P + (1.0 - damping) / n
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        r_next = G @ r
        if np.abs(r_next - r).sum() < 1e-15:
            r = r_next
            break
        r = r_next
    return {v: r[idx[v]] for v in nodes}


def pagerank_of(edges, **kw):
    users, A = follower_graph(edges)
    scores, converged = pagerank(A, **kw)
    return dict(zip(users, scores.tolist())), converged


class TestPagerank:
    def test_three_cycle_is_uniform(self):
        scores, converged = pagerank_of([("a", "b"), ("b", "c"), ("c", "a")])
        assert converged
        for v in "abc":
            assert scores[v] == pytest.approx(1 / 3, abs=1e-9)

    def test_two_node_mutual(self):
        scores, _ = pagerank_of([("a", "b"), ("b", "a")])
        assert scores["a"] == pytest.approx(0.5, abs=1e-9)

    def test_star_matches_dense_oracle(self):
        edges = [("l1", "hub"), ("l2", "hub"), ("l3", "hub")]
        scores, converged = pagerank_of(edges, tol=1e-12)
        assert converged
        expected = dense_pagerank_oracle(sorted(scores), edges)
        for v in scores:
            assert scores[v] == pytest.approx(expected[v], abs=1e-8)

    def test_scores_sum_to_one_on_random_graphs(self):
        rng = random.Random(5)
        for trial in range(5):
            nodes = [f"n{i}" for i in range(12)]
            edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(25)]
            scores, _ = pagerank_of(edges)
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_empty_graph_has_no_rows(self):
        # pagerank never sees a graph without a node: the table returns first
        assert compute_graph_feature_table([]) == {}
        assert compute_graph_feature_table([("a", "a"), ("b", "b")]) == {}


def undirected_adjacency(edges):
    """The undirected projection of a follow list, self-follows dropped."""
    adj = {}
    for a, b in edges:
        if a != b:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return adj


def brute_force_triangles(adj):
    nodes = sorted(adj)
    counts = dict.fromkeys(nodes, 0)
    for a, b, c in itertools.combinations(nodes, 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            counts[a] += 1
            counts[b] += 1
            counts[c] += 1
    return counts


def brute_force_core_numbers(adj):
    nodes = sorted(adj)
    core = dict.fromkeys(nodes, 0)
    for k in range(len(nodes) + 1):
        alive = set(nodes)
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                if len(adj[v] & alive) < k:
                    alive.discard(v)
                    changed = True
        for v in alive:
            core[v] = k
    return core


class TestTrianglesAndCores:
    def test_triangle_graph(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        assert graph_column(edges, "triangle_count") == {"a": 1, "b": 1, "c": 1}
        assert graph_column(edges, "k_core") == {"a": 2, "b": 2, "c": 2}

    def test_path_graph(self):
        edges = [("a", "b"), ("b", "c")]
        assert graph_column(edges, "triangle_count") == {"a": 0, "b": 0, "c": 0}
        assert graph_column(edges, "k_core") == {"a": 1, "b": 1, "c": 1}

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(42)
        for trial in range(200):
            nodes = [f"n{i}" for i in range(rng.randint(1, 14))]
            edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(1, 40))]
            adj = undirected_adjacency(edges)
            assert graph_column(edges, "triangle_count") == brute_force_triangles(adj)
            assert graph_column(edges, "k_core") == brute_force_core_numbers(adj)

    def test_star_with_one_leaf_edge(self):
        # a hub with 20,000 followers: no triangle may come from pairing them up
        edges = [(f"leaf{i}", "hub") for i in range(20000)] + [("leaf0", "leaf1")]
        table = compute_graph_feature_table(edges)
        on_triangle = {"hub", "leaf0", "leaf1"}
        assert table["hub"][GRAPH_COLUMNS.index("in_degree")] == 20000
        assert graph_column(edges, "triangle_count") == {v: float(v in on_triangle) for v in table}
        assert graph_column(edges, "k_core") == {v: 1.0 + (v in on_triangle) for v in table}

    def test_chain(self):
        edges = [(f"v{i}", f"v{i + 1}") for i in range(20000)]
        assert set(graph_column(edges, "triangle_count").values()) == {0.0}
        assert set(graph_column(edges, "k_core").values()) == {1.0}


def char_ngrams(text, n):
    return [text[i:i + n] for i in range(len(text) - n + 1)]


def reference_vocabulary(texts, top_k=10000):
    """The string n-gram ranking: a Counter of 3-grams, ranked by (-count, gram)."""
    counts = Counter()
    for t in texts:
        counts.update(char_ngrams(normalize_text(t), 3))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [gram for gram, _ in ranked[:top_k]]


def reference_ngram_features(texts, vocabulary):
    """The string presence matrix: each text's grams looked up in a dict, once per column."""
    index = {gram: j for j, gram in enumerate(vocabulary)}
    rows, cols = [], []
    for i, t in enumerate(texts):
        seen = set()
        for gram in char_ngrams(normalize_text(t), 3):
            j = index.get(gram)
            if j is not None and j not in seen:
                seen.add(j)
                rows.append(i)
                cols.append(j)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(texts), len(vocabulary)))


# pieces that NFC merges (e + combining acute, A + ring above, the angstrom sign),
# astral and top code points, punctuation-only runs, short and self-repeating texts
text_pieces = st.one_of(
    st.text(st.characters(max_codepoint=0x10FFFF), max_size=5),
    st.sampled_from(["e\u0301", "A\u030a", "\u212b", "\U0001F600", "\U0010FFFF", "\U00020000",
                     "!?", "...", " ", "ab", "aaaa", "abcabc", "#Win", "x\u0301\u0301"]),
)
ngram_texts = st.lists(st.lists(text_pieces, max_size=4).map("".join), max_size=8)


@settings(max_examples=300, deadline=None)
@given(texts=ngram_texts, top_k=st.one_of(st.integers(1, 12), st.just(10000)), other=ngram_texts)
@example(texts=["abcabc"], top_k=2, other=["cab"])  # the cut falls inside the bca/cab tie
@example(texts=["the cat and the hat sat on the mat by the vat", "abcdefghijklmnop"], top_k=10000,
         other=["the bat"])  # many ties among mixed counts
@example(texts=["!!", "é", "e\u0301e\u0301e\u0301"], top_k=1, other=["", "ab"])
def test_ngram_path_matches_string_reference(texts, top_k, other):
    # the n-gram path takes normalized texts; the reference normalizes its own
    vocabulary = fit_ngram_vocabulary([normalize_text(t) for t in texts], top_k)
    assert vocabulary == reference_vocabulary(texts, top_k)
    for batch in (texts, other):
        got = scipy_of(ngram_features([normalize_text(t) for t in batch], vocabulary))
        want = reference_ngram_features(batch, vocabulary)
        assert got.has_sorted_indices
        want.sort_indices()
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


class TestNgrams:
    def test_repeated_gram_counted_by_frequency(self):
        assert char_ngrams("aaaa", 3) == ["aaa", "aaa"]
        assert fit_ngram_vocabulary(["aaaa"], 10000) == ["aaa"]

    def test_oov_transform_is_zero(self):
        m = ngram_features(["bbb"], ["aaa"])
        assert m.nnz == 0

    def test_top_k_tie_break_lexicographic(self):
        vocab = fit_ngram_vocabulary(["abcabc"], top_k=2)
        assert vocab == ["abc", "bca"]

    def test_empty_vocabulary_warns_and_yields_zero_columns(self, caplog):
        with caplog.at_level("WARNING"):
            vocab = fit_ngram_vocabulary([""], 10000)
        assert vocab == []
        assert ngram_features(["anything"], vocab).shape == (1, 0)

    def test_binary_presence(self):
        m = ngram_features(["aaaa"], ["aaa"])
        assert scipy_of(m).toarray().tolist() == [[1.0]]


class TestPipeline:
    def build_messages(self):
        rng = random.Random(9)
        return [
            msg(f"m{i:02d}", user=f"u{rng.randrange(4)}",
                text=rng.choice(["win free stuff", "hello world", "#tag fun", "check http://a.io"]),
                ts=i)
            for i in range(40)
        ]

    def test_transform_reproducible(self):
        messages = self.build_messages()
        follows = [("u0", "u1"), ("u1", "u2"), ("u2", "u0")]
        graph = compute_graph_feature_table(follows)
        labels = known(messages, {m.id: 0 for m in messages[:30]})
        a = feature_matrix(as_table(messages), 30, labels, graph, 50)
        b = feature_matrix(as_table(messages), 30, labels, graph, 50)
        assert a.column_names == b.column_names
        assert (scipy_of(a.matrix) != scipy_of(b.matrix)).nnz == 0

    def test_columns_frozen_across_slices(self):
        messages = self.build_messages()
        labels = known(messages, {})
        fm = feature_matrix(as_table(messages), 30, labels, {}, 20)
        train, test = fm.rows(0, 30), fm.rows(30, 40)
        assert train.column_names == test.column_names == fm.column_names
        # the columns follow from the training rows alone
        alone = feature_matrix(as_table(messages[:30]), 30, labels[:30], {}, 20)
        assert alone.column_names == fm.column_names
        assert (train.shape[0], test.shape[0]) == (30, 10)
        assert (sp.vstack([scipy_of(train.matrix), scipy_of(test.matrix)])
                != scipy_of(fm.matrix)).nnz == 0

    def test_limited_mode_drops_ngrams(self):
        config = ExperimentConfig(feature_mode="limited", limited_drop="ngrams")
        assert config.keeps("graph") and not config.keeps("ngrams")
        messages = self.build_messages()
        fm = feature_matrix(as_table(messages), len(messages), known(messages, {}), {}, None)
        assert not any(c.startswith("ng:") for c in fm.column_names)
        # an empty table keeps the graph block: no user follows anyone
        graph = [fm.column_index[c] for c in GRAPH_COLUMNS]
        assert scipy_of(fm.matrix)[:, graph].nnz == 0

    def test_limited_mode_can_drop_graph(self):
        config = ExperimentConfig(feature_mode="limited", limited_drop="graph")
        assert not config.keeps("graph") and config.keeps("ngrams")
        messages = self.build_messages()
        fm = feature_matrix(as_table(messages), len(messages), known(messages, {}), None, 5)
        assert "pagerank" not in fm.column_names

    def test_user_missing_from_graph_gets_zeros(self):
        messages = [msg("m1", user="stranger", ts=0)]
        fm = feature_matrix(as_table(messages), 1, [-1],
                            compute_graph_feature_table([("a", "b"), ("b", "a")]), 5)
        j = fm.column_index["pagerank"]
        assert scipy_of(fm.matrix)[0, j] == 0.0

    def test_matrix_file_round_trip(self, tmp_path):
        messages = self.build_messages()
        fm = feature_matrix(as_table(messages[:20]), 20, known(messages[:20], {}), {}, 10)
        path = tmp_path / "feats.npz"
        write_feature_matrix(path, fm)
        back = read_feature_matrix(path)
        assert_same_matrix(back, fm)

    def test_matrix_file_idempotent_bytes(self, tmp_path):
        messages = self.build_messages()
        fm = feature_matrix(as_table(messages[:20]), 20, known(messages[:20], {}), {}, 10)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        write_feature_matrix(p1, fm)
        write_feature_matrix(p2, fm)
        assert p1.read_bytes() == p2.read_bytes()
        with zipfile.ZipFile(p1) as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_DEFLATED}

    def test_stored_matrix_file_of_earlier_versions_reads_back(self, tmp_path):
        # they were written by np.savez, uncompressed
        messages = self.build_messages()
        fm = feature_matrix(as_table(messages[:20]), 20, known(messages[:20], {}), {}, 10)
        new, old = tmp_path / "new.npz", tmp_path / "old.npz"
        write_feature_matrix(new, fm)
        with np.load(new) as archive, open(old, "wb") as fh:
            np.savez(fh, **{k: archive[k] for k in archive.files})
        with zipfile.ZipFile(old) as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_STORED}
        assert_same_matrix(read_feature_matrix(old), fm)


def test_graph_table_covers_exactly_the_node_set():
    table = compute_graph_feature_table([("a", "b"), ("c", "b"), ("d", "a"), ("e", "e")])
    assert list(table) == ["a", "b", "c", "d"]
    total = sum(row[GRAPH_COLUMNS.index("pagerank")] for row in table.values())
    assert total == pytest.approx(1.0, abs=1e-6)


# names a line- or tab-split artifact would corrupt, non-ASCII names and hub-prefixed names
awkward_ids = st.one_of(
    st.text(max_size=8),
    st.text(max_size=4).map(lambda t: "hub:user:" + t),
    st.sampled_from(["a\tb", "line\nbreak", "crlf\r\n", "ünïçødé", "日本", "\\t", '"q"']),
)


@st.composite
def feature_matrices(draw):
    """FeatureMatrix whose rows hold any finite or infinite values, zeros among them."""
    n_rows = draw(st.integers(0, 6))
    columns = draw(st.lists(awkward_ids, unique=True, max_size=5))
    entries = [sorted(draw(st.lists(st.tuples(st.integers(0, len(columns) - 1),
                                              st.floats(allow_nan=False, width=64)),
                                    max_size=4, unique_by=lambda e: e[0])))
               if columns else [] for _ in range(n_rows)]
    rows = [i for i, e in enumerate(entries) for _ in e]
    matrix = CSR.from_entries(np.array(rows, dtype=np.int64), [j for e in entries for j, _ in e],
                              [v for e in entries for _, v in e], (n_rows, len(columns)))
    return FeatureMatrix(columns, matrix)


@settings(max_examples=80, deadline=None)
@given(feature_matrices())
def test_matrix_file_round_trip_is_exact(tmp_path_factory, fm):
    path = tmp_path_factory.mktemp("fm") / "features.npz"
    write_feature_matrix(path, fm)
    assert_same_matrix(read_feature_matrix(path), fm)


@pytest.mark.parametrize("n_rows,n_cols", [(3, 4), (0, 4), (0, 0)])
def test_matrix_file_round_trip_without_nonzeros(tmp_path, n_rows, n_cols):
    fm = FeatureMatrix([f"hub:text:{j}\t" for j in range(n_cols)],
                       CSR.from_dense(np.zeros((n_rows, n_cols))))
    write_feature_matrix(tmp_path / "f.npz", fm)
    back = read_feature_matrix(tmp_path / "f.npz")
    assert back.matrix.nnz == 0
    assert_same_matrix(back, fm)


def test_old_triplet_file_raises_data_error(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text('#relspam-features v1\n#rows ["m1"]\n#columns ["c"]\nm1\tc\t1.0\n',
                    encoding="utf-8")
    with pytest.raises(DataError, match="featurize"):
        read_feature_matrix(path)


@pytest.mark.parametrize("kept", [0.0, 0.01, 0.5, 0.99])
def test_truncated_matrix_file_raises_data_error(tmp_path, kept):
    fm = FeatureMatrix(["a", "b"], CSR.from_dense(np.array([[1.0, 0.0], [0.5, 2.0]])))
    path = tmp_path / "features.npz"
    write_feature_matrix(path, fm)
    raw = path.read_bytes()
    path.write_bytes(raw[:int(kept * len(raw))])
    with pytest.raises(DataError):
        read_feature_matrix(path)


def test_matrix_file_short_of_its_last_byte_is_named(tmp_path):
    fm = FeatureMatrix(["a", "b"], CSR.from_dense(np.array([[1.0, 0.0], [0.5, 2.0]])))
    path = tmp_path / "features.npz"
    write_feature_matrix(path, fm)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DataError, match=r"features.npz: not a relspam-features v3 file \(.*\); "
                                        r"rerun the featurize stage"):
        read_feature_matrix(path)


def test_matrix_file_with_a_damaged_deflate_stream_is_named(tmp_path):
    fm = FeatureMatrix(["a", "b"], CSR.from_dense(np.array([[1.0, 0.0], [0.5, 2.0]])))
    path = tmp_path / "features.npz"
    write_feature_matrix(path, fm)
    with zipfile.ZipFile(path) as archive:
        offset = archive.getinfo("data.npy").header_offset
    raw = bytearray(path.read_bytes())
    name, extra = struct.unpack("<HH", raw[offset + 26:offset + 30])  # the local header's
    raw[offset + 30 + name + extra] = 0xFF  # a first deflate block of the reserved type
    path.write_bytes(raw)
    with pytest.raises(DataError, match=r"features.npz: not a relspam-features v3 file \(.*; "
                                        r"rerun the featurize stage"):
        read_feature_matrix(path)


def _damaged(raw: bytes, damage: str) -> bytes:
    """The archive `raw` with one field of its first central directory record
    set: "encrypted" sets bit 0 of the flags, "version" needs zip version 25.5."""
    raw, record = bytearray(raw), raw.index(b"PK\x01\x02")
    if damage == "encrypted":
        raw[record + 8] |= 1
    else:
        raw[record + 6:record + 8] = struct.pack("<H", 0xFF)
    return bytes(raw)


@pytest.mark.parametrize("damage", ["encrypted", "version"])
def test_matrix_file_with_a_damaged_zip_record_is_named(tmp_path, damage):
    # zipfile raises RuntimeError for the one and NotImplementedError for the other
    fm = FeatureMatrix(["a", "b"], CSR.from_dense(np.array([[1.0, 0.0], [0.5, 2.0]])))
    path = tmp_path / "features.npz"
    write_feature_matrix(path, fm)
    path.write_bytes(_damaged(path.read_bytes(), damage))
    with pytest.raises(DataError, match=r"features.npz: not a relspam-features v3 file \(.*\); "
                                        r"rerun the featurize stage"):
        read_feature_matrix(path)


def test_matrix_file_with_an_unparsable_npy_header_is_named(tmp_path):
    # a well-formed zip whose data.npy header dict does not close: numpy's header
    # parser raises tokenize.TokenError
    fm = FeatureMatrix(["a", "b"], CSR.from_dense(np.array([[1.0, 0.0], [0.5, 2.0]])))
    path = tmp_path / "features.npz"
    write_feature_matrix(path, fm)
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members["data.npy"] = members["data.npy"].replace(b"}", b"(", 1)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    with pytest.raises(DataError, match=r"features.npz: not a relspam-features v3 file \(.*\); "
                                        r"rerun the featurize stage"):
        read_feature_matrix(path)


def test_matrix_file_with_any_byte_flipped_is_named_or_reads_back_equal(tmp_path):
    fm = FeatureMatrix(["a", "b"], CSR.from_dense(np.array([[1.0, 0.0], [0.5, 2.0]])))
    path = tmp_path / "features.npz"
    write_feature_matrix(path, fm)
    raw = path.read_bytes()
    for i in range(len(raw)):
        path.write_bytes(raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:])
        try:
            back = read_feature_matrix(path)
        except DataError:
            continue
        assert_same_matrix(back, fm)


def test_matrix_file_with_other_format_tag_raises_data_error(tmp_path):
    # v2 is the layout whose header also lists the row ids
    for tag, rows in (("v1", []), ("v2", ["m1"])):
        header = json.dumps({"format": f"relspam-features {tag}", "rows": rows,
                             "columns": ["c"]}).encode()
        path = tmp_path / "features.npz"
        with open(path, "wb") as fh:
            np.savez(fh, header=np.frombuffer(header, dtype=np.uint8), data=np.ones(len(rows)),
                     indices=np.zeros(len(rows), dtype=np.int32),
                     indptr=np.arange(len(rows) + 1, dtype=np.int32),
                     shape=np.array([len(rows), 1], dtype=np.int64))
        with pytest.raises(DataError, match=f"'relspam-features {tag}'.*rerun the featurize"):
            read_feature_matrix(path)


@pytest.mark.parametrize("arrays, reason", [
    ({"indices": np.array([1, 0, 0], dtype=np.int32)}, "not increasing"),
    ({"indices": np.array([0, 0, 2], dtype=np.int32)}, "out of range"),
    ({"indices": np.array([0, -1, 1], dtype=np.int32)}, "out of range"),
    ({"indptr": np.array([0, 2, 1, 3], dtype=np.int32)}, "does not split"),
    ({"indptr": np.array([0, 1, 3], dtype=np.int32)}, "does not split"),
    ({"data": np.array([1.0, 0.5])}, "does not split"),
    ({"indices": np.array([0.0, 0.0, 1.0])}, "dtypes"),
])
def test_matrix_file_breaking_the_csr_layout_is_named(tmp_path, arrays, reason):
    # rows [[1, 0], [0.5, 2], [0, 0]], then one array replaced
    good = {"data": np.array([1.0, 0.5, 2.0]), "indices": np.array([0, 0, 1], dtype=np.int32),
            "indptr": np.array([0, 1, 3, 3], dtype=np.int32), "shape": np.array([3, 2])}
    path = tmp_path / "features.npz"
    write_artifact(path, "relspam-features v3", {"columns": ["a", "b"]}, {**good, **arrays})
    with pytest.raises(DataError, match=rf"features.npz: not a relspam-features v3 file \(.*"
                                        rf"{reason}.*\); rerun the featurize stage"):
        read_feature_matrix(path)
