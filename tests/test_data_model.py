import gc
import hashlib
import json
import math
import multiprocessing
import random
import re
import string
import time
import unicodedata
import zipfile
from dataclasses import fields
from pathlib import Path
from unittest import mock
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relspam import data_model
from relspam.data_model import (
    ConfigError,
    DataError,
    Group,
    INDEX_FORMAT,
    MESSAGE_FIELDS,
    RELATION_NAMES,
    MessageRow,
    MessageTable,
    build_groups,
    build_index,
    chronological_split,
    gc_paused,
    message_table,
    normalize_link,
    normalize_text,
    read_follows,
    read_index,
    read_message_table,
    read_messages,
    relations_from_names,
    sort_chronologically,
    write_artifact,
    write_index,
    write_messages,
)
from relspam.evaluation import ExperimentConfig, prepare_dataset
from relspam.features import CONTENT_COLUMNS, extract_content_features

from tables import hub_table, records_of, rows_of


def msg(mid, user="u", text="", ts=0, **kw):
    return dict(id=mid, user_id=user, text=text, timestamp=ts, **kw)


as_table = message_table


ABSENT = object()
VALID_RECORD = {"id": "m1", "user_id": "u1", "text": "hi", "timestamp": 5, "target_id": "t1",
                "links": ["http://x.co"], "hashtags": ["h"], "mentions": ["a"],
                "is_retweet": True, "label": 1}
LINE_3_INDEX = 2  # the timestamp of a record on line 3 without one


def documented(field, value):
    """What the README's input table says a record holding `value` in `field`
    (ABSENT: without the field) loads as, written out field by field; ABSENT
    when it must fail."""
    def utf8(v):
        return type(v) is str and not any(0xD800 <= ord(c) <= 0xDFFF for c in v)

    if value is None and field in ("timestamp", "target_id", "label"):
        value = ABSENT
    if value is ABSENT:
        return {"id": ABSENT, "user_id": ABSENT, "text": "", "timestamp": LINE_3_INDEX,
                "target_id": None, "links": [], "hashtags": [], "mentions": [],
                "is_retweet": False, "label": None}[field]
    ok = {"id": utf8(value) and not set(value) & set("\t\r\n"),
          "user_id": utf8(value) and value != "",
          "text": utf8(value),
          "timestamp": type(value) is int and value >= 0,
          "target_id": utf8(value),
          "is_retweet": type(value) is bool,
          "label": type(value) is int and value in (0, 1)}.get(field)
    if ok is None:  # the three lists
        ok = type(value) is list and all(map(utf8, value))
    return value if ok else ABSENT


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(), st.floats(allow_nan=False),
    st.sampled_from(["", "u", "a\tb", "a\rb", "a\nb", "a\ud800", "\udfff", "0", "1", "false"]),
    st.text(st.sampled_from("u0\t\r\n\ud800\udfff"), max_size=3), st.text(max_size=4))
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
                        st.dictionaries(st.text(max_size=2), JSON_SCALARS, max_size=2))
UTF8_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
MESSAGES = st.builds(
    dict, id=UTF8_TEXT.filter(lambda t: not set(t) & set("\t\r\n")),
    user_id=UTF8_TEXT.filter(bool), text=UTF8_TEXT, timestamp=st.integers(0, 2 ** 63),
    target_id=st.none() | UTF8_TEXT, links=st.lists(UTF8_TEXT, max_size=2),
    hashtags=st.lists(UTF8_TEXT, max_size=2), mentions=st.lists(UTF8_TEXT, max_size=2),
    is_retweet=st.booleans(), label=st.sampled_from([None, 0, 1]))


def assert_rejected(field, value, match):
    """A list whose first record holds the value fails, naming the record."""
    with pytest.raises(DataError, match="^record 0: " + match):
        message_table([{"id": "m1", "user_id": "u", field: value}])


# one subset, whose first half is its training slice
ONE_SUBSET = ExperimentConfig(relations=["user"], models=["independent"], n_subsets=1,
                              fractions=(0.5, 0.25, 0.25))


class TestValidation:
    def test_duplicate_ids_reported(self):
        with pytest.raises(DataError, match=r"^dataset failed validation: duplicate message "
                                            r"id: m1$"):
            prepare_dataset(as_table([msg("m1"), msg("m1"), msg("m2")]), [], ONE_SUBSET)

    def test_partly_labeled_dataset_is_valid(self):
        # only the training slice, messages a and b, must be labeled
        messages = [msg("a", ts=0, label=1), msg("b", ts=1, label=0), msg("c", ts=2),
                    msg("d", ts=3)]
        table = as_table(messages)
        plan, _ = prepare_dataset(table, [], ONE_SUBSET)
        assert table.ids == ["a", "b", "c", "d"]
        assert plan[0].train == (0, 2)
        assert table.labels.tolist() == [1, 0, -1, -1]

    @pytest.mark.parametrize("bad", ["a\tb", "a\rb", "a\nb"])
    def test_id_with_tab_or_line_break_flagged(self, bad):
        assert_rejected("id", bad, "'id' must be a string without a tab, CR, newline")

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=12).filter(lambda t: not set(t) & set("\t\r\n")))
    def test_an_id_of_the_hub_form_is_accepted(self, suffix):
        # hubs are numbered after the messages, so no message id can name one
        messages = [msg("ok", ts=0, label=0), msg("hub:user:" + suffix, ts=1)]
        table = as_table(messages)
        prepare_dataset(table, [], ONE_SUBSET)
        index = build_index(table, ONE_SUBSET.relations)
        assert index.ids == ["ok", "hub:user:" + suffix]
        assert index.table.members.tolist() == [0, 1]

    @pytest.mark.parametrize("field, value", [("id", "m\ud800x"), ("user_id", "u\udfff"),
                                              ("text", "hi \ud800"), ("hashtags", ["\udc00"])])
    def test_string_field_utf8_cannot_carry_flagged(self, field, value):
        # a lone surrogate is valid JSON ("\ud800") but not encodable as UTF-8
        assert_rejected(field, value, f"'{field}' must be .*lone surrogate, got ")

    @pytest.mark.parametrize("field, value", [("user_id", 7), ("text", None), ("links", [1]),
                                              ("hashtags", ["ok", None]), ("mentions", [["x"]]),
                                              ("target_id", 7), ("target_id", [7])])
    def test_field_that_is_not_a_string_flagged(self, field, value):
        # JSON allows these; grouping and featurizing would fail on them
        assert_rejected(field, value, f"'{field}' must be .*string.*, got ")

    def test_negative_timestamp_flagged(self):
        assert_rejected("timestamp", -5, "'timestamp' must be a non-negative integer, got -5")


class TestNormalization:
    def test_text_normalization_matches(self):
        assert normalize_text("WIN free followers") == normalize_text("win  FREE followers!")

    def test_strips_leading_and_trailing_punctuation(self):
        assert normalize_text("!!hello there??") == "hello there"

    @settings(max_examples=500, deadline=None)
    @given(st.text(st.one_of(st.characters(max_codepoint=0x10FFFF),
                             st.sampled_from("!?.,;:'\"()-_#@ \t\u2026\u3002\uff01\u0301a1")),
                   max_size=8))
    def test_text_normalization_matches_a_per_character_reference(self, text):
        s = " ".join(unicodedata.normalize("NFC", text).lower().split())
        start, end = 0, len(s)
        while start < end and unicodedata.category(s[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(s[end - 1]).startswith("P"):
            end -= 1
        assert normalize_text(text) == s[start:end]

    def test_link_normalization_lowercases_scheme_and_host(self):
        assert normalize_link("HTTP://Example.COM/Path?Q=1") == "http://example.com/Path?Q=1"

    def test_link_without_netloc_is_untouched(self):
        assert normalize_link("x.co/abc") == "x.co/abc"


class TestGroups:
    def test_user_groups_drop_singletons(self):
        messages = [msg("m1", user="u1"), msg("m2", user="u1"), msg("m3", user="u2")]
        groups = build_groups(rows_of(messages), relations_from_names(["user"]))
        assert groups == [Group(relation="user", key="u1", member_ids=("m1", "m2"))]

    def test_text_groups_use_normalization(self):
        messages = [
            msg("m1", text="WIN free followers"),
            msg("m2", text="win  FREE followers!"),
            msg("m3", text="something else"),
        ]
        groups = build_groups(rows_of(messages), relations_from_names(["text"]))
        assert len(groups) == 1
        assert groups[0].member_ids == ("m1", "m2")

    def test_shared_link_yields_one_group_not_pairs(self):
        messages = [msg(f"m{i:03d}", user=f"u{i}", links=["http://spam.example/x"]) for i in range(100)]
        groups = build_groups(rows_of(messages), relations_from_names(["link"]))
        assert len(groups) == 1
        assert len(groups[0]) == 100

    def test_unknown_relation_is_config_error(self):
        with pytest.raises(ConfigError):
            build_groups(rows_of([msg("m1")]), relations_from_names(["bogus"]))

    def test_permutation_invariance(self):
        rng = random.Random(7)
        messages = [
            msg(f"m{i}", user=f"u{i % 5}", text=f"text {i % 4}", ts=i)
            for i in range(30)
        ]
        rels = relations_from_names(["user", "text"])
        base = build_groups(rows_of(messages), rels)
        for _ in range(5):
            shuffled = messages[:]
            rng.shuffle(shuffled)
            assert build_groups(rows_of(shuffled), rels) == base

    def test_group_members_exist_in_dataset(self):
        messages = [msg(f"m{i}", user=f"u{i % 3}") for i in range(10)]
        ids = {m["id"] for m in messages}
        for g in build_groups(rows_of(messages), relations_from_names(["user"])):
            assert set(g.member_ids) <= ids

    def test_user_hashtag_keys(self):
        messages = [
            msg("m1", user="u1", hashtags=["Win"]),
            msg("m2", user="u1", hashtags=["win"]),
            msg("m3", user="u2", hashtags=["win"]),
        ]
        groups = build_groups(rows_of(messages), relations_from_names(["user_hashtag"]))
        assert len(groups) == 1
        assert groups[0].member_ids == ("m1", "m2")

    def test_user_hashtag_keys_are_pairs(self):
        # joined by "\x1f", user "a\x1fb" with tag "c" and user "a" with tag "b\x1fc" would collide
        messages = [msg("m1", user="a\x1fb", hashtags=["c"]),
                    msg("m2", user="a", hashtags=["b\x1fc"])]
        assert build_groups(rows_of(messages), ["user_hashtag"]) == []
        assert len(build_index(as_table(messages), ["user_hashtag"]).table) == 0

    @pytest.mark.parametrize("link", ["http://[x/y", "http://\u2100.com/"])
    def test_link_urlsplit_rejects_groups_by_its_text(self, link):
        with pytest.raises(ValueError):
            urlsplit(link)
        messages = [msg("m1", links=[f" {link}\n"]), msg("m2", text=f"see {link}"),
                    msg("m3", links=["http://other.io"])]
        assert build_groups(rows_of(messages), ["link"]) == [Group("link", link, ("m1", "m2"))]
        assert build_index(as_table(messages), ["link"]).table.members.tolist() == [0, 1]

    @pytest.mark.parametrize("relation, fields, column, counts", [
        ("mention", [{"text": "hi @! there"}, {"text": "yo @?? x"}, {"text": "@_"},
                     {"text": "@."}], "num_mentions", [0, 0, 0, 0]),
        ("link", [{"links": ["  "]}, {"links": [""]}], "num_links", [0, 0]),
        ("hashtag", [{"hashtags": [""]}, {"hashtags": [""]}], "num_hashtags", [0, 0]),
        ("user_hashtag", [{"hashtags": [""]}, {"hashtags": [""]}], "num_hashtags", [0, 0]),
    ])
    def test_an_empty_key_makes_no_group(self, relation, fields, column, counts):
        # the messages share nothing but a key that is empty, once parsed or normalized
        messages = [msg(f"m{i}", **kw) for i, kw in enumerate(fields)]
        assert build_groups(rows_of(messages), [relation]) == []
        assert len(build_index(as_table(messages), [relation]).table) == 0
        # the content block counts what makes a key, listed or parsed
        counts_of = extract_content_features(as_table(messages))[:, CONTENT_COLUMNS.index(column)]
        assert counts_of.tolist() == counts

    def test_hashtags_parsed_from_text_when_unannotated(self):
        messages = [msg("m1", text="check #win now"), msg("m2", text="also #win")]
        groups = build_groups(rows_of(messages), relations_from_names(["hashtag"]))
        assert len(groups) == 1


class TestChronologicalSplit:
    def test_ten_subsets_of_hundred(self):
        messages = [msg(f"m{i:03d}", ts=i) for i in range(100)]
        plan = chronological_split(messages, 10, (0.7, 0.05, 0.25))
        assert len(plan) == 10
        for s in plan:
            n_train = s.train[1] - s.train[0]
            n_val = s.validation[1] - s.validation[0]
            n_test = s.test[1] - s.test[0]
            assert n_train == 7
            assert 0 <= n_val <= 1
            assert 2 <= n_test <= 3
            assert s.train[1] <= s.test[0]

    def test_single_even_split(self):
        messages = [msg(f"m{i}", ts=i) for i in range(10)]
        plan = chronological_split(messages, 1, (0.5, 0.0, 0.5))
        s, = plan
        assert s.train == (0, 5)
        assert s.test == (5, 10)

    def test_tie_break_by_id(self):
        messages = [msg("b", ts=5), msg("a", ts=5), msg("c", ts=1)]
        ordered = sort_chronologically(rows_of(messages))
        assert [m.id for m in ordered] == ["c", "a", "b"]

    def test_no_future_leakage(self):
        rng = random.Random(3)
        messages = [msg(f"m{i:04d}", ts=rng.randrange(1000)) for i in range(137)]
        ordered = sort_chronologically(rows_of(messages))
        plan = chronological_split(ordered, 7, (0.6, 0.1, 0.3))
        for s in plan:
            if s.train[1] > s.train[0] and s.test[1] > s.test[0]:
                max_train_ts = max(m.timestamp for m in ordered[s.train[0]:s.train[1]])
                min_test_ts = min(m.timestamp for m in ordered[s.test[0]:s.test[1]])
                assert max_train_ts <= min_test_ts

    def test_test_ranges_disjoint(self):
        messages = [msg(f"m{i:03d}", ts=i) for i in range(95)]
        plan = chronological_split(messages, 10, (0.7, 0.05, 0.25))
        seen = set()
        for s in plan:
            rng_ids = set(range(s.test[0], s.test[1]))
            assert not (seen & rng_ids)
            seen |= rng_ids

    def test_too_few_messages_raises(self):
        with pytest.raises(DataError):
            chronological_split([msg("a")], 2, (0.5, 0.0, 0.5))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.sampled_from(["u1", "u2", "u3"]), st.sampled_from(["x", "y", "z", "w"])),
        min_size=4,
        max_size=40,
    )
)
def test_split_invariant_property(rows):
    messages = [msg(f"m{i:02d}", user=u, text=t, ts=ts) for i, (ts, u, t) in enumerate(rows)]
    ordered = sort_chronologically(rows_of(messages))
    plan = chronological_split(ordered, 2, (0.5, 0.25, 0.25))
    for s in plan:
        train = ordered[s.train[0]:s.train[1]]
        test = ordered[s.test[0]:s.test[1]]
        if train and test:
            assert max(m.timestamp for m in train) <= min(m.timestamp for m in test)


LINKS = ["http://a.io/1", "HTTP://A.io/1", "http://b.io", "http://[x/y", "http://\u2100.com/"]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["u1", "u2", "a\x1fb", "a"]),
                  st.sampled_from(["x", "y", "X!", "", "@Bob, http://[x/y #tag", "see http://b.io @bob"]),
                  st.lists(st.sampled_from(LINKS), max_size=2),
                  st.lists(st.sampled_from(["tag", "Tag", "other", "c", "b\x1fc"]), max_size=2),
                  st.lists(st.sampled_from(["bob", "Bob", "eve", ""]), max_size=2),
                  st.sampled_from([None, "", "t1", "t2"]),
                  st.integers(0, 9)),
        max_size=25,
    ),
    st.lists(st.sampled_from(RELATION_NAMES), unique=True),
    st.lists(st.integers(0, 25), min_size=4, max_size=4),
)
@example(rows=[("u1", "", ["http://[x/y"], [], [], None, 0),
               ("u2", "see http://[x/y", [], [], [], None, 1)],
         relation_names=list(RELATION_NAMES), cuts=[0, 2, 2, 2])
@example(rows=[("u1", "", ["http://\u2100.com/"], [], [], None, 0),
               ("u2", "see http://\u2100.com/", [], [], [], None, 1)],
         relation_names=list(RELATION_NAMES), cuts=[0, 2, 2, 2])
@example(rows=[("a\x1fb", "", [], ["c"], [], None, 0), ("a", "", [], ["b\x1fc"], [], None, 1)],
         relation_names=["user_hashtag"], cuts=[0, 2, 2, 2])
def test_restricted_groups_equal_groups_of_the_subset(rows, relation_names, cuts):
    ordered = sort_chronologically(rows_of([
        msg(f"m{i:02d}", user=u, text=t, links=links, hashtags=tags, mentions=mentions,
            target_id=target, ts=ts)
        for i, (u, t, links, tags, mentions, target, ts) in enumerate(rows)]))
    a, b, c, d = sorted(cuts)
    expected = build_groups(ordered[a:b] + ordered[c:d], relation_names)
    table = build_index(as_table(records_of(ordered)), relation_names).groups((a, b), (c, d))
    # the groups as edge arrays, each group's members in position order
    position = {m.id: i for i, m in enumerate(ordered)}
    members = [sorted(position[mid] for mid in g.member_ids) for g in expected]
    assert [(table.relations[r], table.members[table.group == j].tolist())
            for j, r in enumerate(table.group_relation.tolist())] == \
        [(g.relation, m) for g, m in zip(expected, members)]
    # every slice names every configured relation, under the index's codes
    assert table.relations == sorted(set(relation_names))
    assert table.sizes.tolist() == [len(m) for m in members]
    assert table.members.tolist() == [p for m in members for p in m]
    assert table.group.tolist() == [j for j, m in enumerate(members) for _ in m]
    assert table.relation.tolist() == table.group_relation[table.group].tolist()


@st.composite
def hub_layouts(draw):
    """(groups as lists of member positions, a free mask and values over positions)."""
    n = draw(st.integers(2, 16))
    groups = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=12, unique=True),
                           max_size=6))
    free = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    value = st.sampled_from([0.0, 1.0]) if draw(st.booleans()) else st.one_of(
        st.floats(0.0, 1.0), st.just(float("nan")))
    return groups, free, draw(st.lists(value, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(hub_layouts(), st.booleans())
def test_hub_layout_matches_per_group_reference(layout, masked):
    groups, free, values = layout
    table = hub_table(*(("user", str(k), g) for k, g in enumerate(groups)))
    grouped = sorted({p for g in groups for p in g})
    missing = [p for p in grouped if math.isnan(values[p])]
    if missing:
        with pytest.raises(DataError, match=re.escape(
                f"{len(missing)} grouped messages lack priors (first: position {missing[0]})")):
            table.variables(np.array(values), np.array(free) if masked else None)
        return
    messages = [p for p in grouped if free[p] or not masked]
    got, variable = table.variables(np.array(values), np.array(free) if masked else None)
    assert got.tolist() == messages
    assert variable.tolist() == [messages.index(p) if p in messages else -1
                                 for p in range(len(values))]

    means = table.means(np.array(values)).tolist()
    member_values = [[values[p] for p in sorted(g)] for g in groups]
    np.testing.assert_allclose(means, [sum(v) / len(v) for v in member_values], rtol=0, atol=1e-12)
    if set(values) <= {0.0, 1.0}:
        # bit for bit with the pairwise sums of np.mean
        assert means == [np.mean(v) for v in member_values]


class TestIndexFile:
    def index(self):
        messages = [msg("b", user="u", text="hi", ts=0, label=1), msg("a", user="u", ts=1),
                    msg("c", user="v", text="hi", ts=2, label=0)]
        return build_index(as_table(messages), ["user", "text"], source_sha256="0" * 64)

    def test_round_trip_and_byte_idempotent(self, tmp_path):
        index = self.index()
        write_index(tmp_path / "a.npz", index)
        write_index(tmp_path / "b.npz", read_index(tmp_path / "a.npz"))
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
        back = read_index(tmp_path / "b.npz")
        assert (back.ids, back.source_sha256) == (["b", "a", "c"], "0" * 64)
        with np.load(tmp_path / "b.npz") as archive:  # the header lists the sorted relations
            assert json.loads(archive["header"].tobytes())["relations"] == ["text", "user"]
        assert back.labels.tolist() == [1, -1, 0] and back.labels.dtype == np.int8
        # groups ("text", "hi") and ("user", "u"), members in position order
        assert back.table.relations == ["text", "user"]
        assert back.table.group_relation.tolist() == [0, 1]
        assert back.table.sizes.tolist() == [2, 2]
        assert back.table.members.tolist() == [0, 2, 0, 1] and back.table.members.dtype == np.int32

    def write_as_config_ordered(self, path, index, relations):
        """`index` written with its header's relations in the order `relations`,
        as featurize wrote them before the header held the sorted list."""
        t = index.table
        write_artifact(path, INDEX_FORMAT, {"relations": relations,
                                            "source_sha256": index.source_sha256, "ids": index.ids},
                       {"labels": index.labels, "group_relation": t.group_relation.astype(np.int8),
                        "group_size": t.sizes.astype(np.int32), "member": t.members})

    def test_a_header_in_config_order_reads_back_to_the_same_groups(self, tmp_path):
        index = self.index()
        self.write_as_config_ordered(tmp_path / "old.npz", index, ["user", "text"])
        back = read_index(tmp_path / "old.npz")
        assert back.table.relations == index.table.relations == ["text", "user"]
        for name in ("group_relation", "sizes", "members", "group", "relation"):
            assert getattr(back.table, name).tolist() == getattr(index.table, name).tolist(), name
        # written again, the file holds the sorted header and reads back the same
        write_index(tmp_path / "new.npz", back)
        assert read_index(tmp_path / "new.npz").table.group_relation.tolist() == [0, 1]

    def test_a_relation_code_the_header_lacks_is_named(self, tmp_path):
        # the "user" group's code 1 names no relation of a one-relation header
        path = tmp_path / "index.npz"
        self.write_as_config_ordered(path, self.index(), ["text"])
        with pytest.raises(DataError, match=r"index.npz: not a relspam-index v2 file \(a relation "
                                            r"code names no relation of the header\); rerun the "
                                            r"featurize stage"):
            read_index(path)

    def test_group_count_mismatch_raises_data_error(self, tmp_path):
        # three relation codes for two group sizes
        path = tmp_path / "index.npz"
        write_artifact(path, INDEX_FORMAT, {"relations": ["user"], "source_sha256": "",
                                            "ids": ["a", "b"]},
                       {"labels": np.zeros(2, dtype=np.int8),
                        "group_relation": np.zeros(3, dtype=np.int8),
                        "group_size": np.array([1, 1], dtype=np.int32),
                        "member": np.array([0, 1], dtype=np.int32)})
        with pytest.raises(DataError, match="array lengths"):
            read_index(path)

    def test_truncated_file_raises_data_error(self, tmp_path):
        path = tmp_path / "index.npz"
        write_index(path, self.index())
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(DataError, match="featurize"):
            read_index(path)

    def test_every_member_is_deflated(self, tmp_path):
        write_index(tmp_path / "index.npz", self.index())
        with zipfile.ZipFile(tmp_path / "index.npz") as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_DEFLATED}

    def test_an_index_of_earlier_versions_reads_back(self, tmp_path):
        # they were written by np.savez_compressed, deflated at its level
        index, path = self.index(), tmp_path / "index.npz"
        write_index(tmp_path / "new.npz", index)
        with np.load(tmp_path / "new.npz") as archive, open(path, "wb") as fh:
            np.savez_compressed(fh, **{k: archive[k] for k in archive.files})
        assert path.read_bytes() != (tmp_path / "new.npz").read_bytes()
        back = read_index(path)
        assert (back.ids, back.source_sha256) == (index.ids, index.source_sha256)
        assert np.array_equal(back.labels, index.labels) and back.labels.dtype == np.int8
        for name in ("group_relation", "sizes", "members"):
            assert np.array_equal(getattr(back.table, name), getattr(index.table, name)), name

    def test_other_format_tag_raises_data_error(self, tmp_path):
        path = tmp_path / "index.npz"
        header = json.dumps({"format": "relspam-index v0", "relations": [], "source_sha256": "",
                             "ids": []}).encode()
        empty = np.zeros(0, dtype=np.int32)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, header=np.frombuffer(header, dtype=np.uint8), labels=empty,
                                group_relation=empty, group_size=empty, member=empty)
        with pytest.raises(DataError, match=INDEX_FORMAT):
            read_index(path)


class TestIngestion:
    def test_round_trip(self, tmp_path):
        messages = [
            dict(id="a", user_id="u1", text="hi #there", timestamp=3, label=1,
                 links=["http://x.co"], hashtags=["there"]),
            dict(id="b", user_id="u2", text="plain", timestamp=5, target_id=None),
        ]
        path = tmp_path / "messages.jsonl"
        write_messages(path, messages)
        # a key whose value is None is left out
        assert path.read_text().splitlines()[1] == \
            '{"id": "b", "text": "plain", "timestamp": 5, "user_id": "u2"}'
        assert read_messages(path) == rows_of(messages)

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "x", "user_id": "u", "wat": 42, "timestamp": 1}) + "\n")
        assert read_messages(path) == [MessageRow("x", "u", "", 1, None, [], [], [], False, None)]
        table, _ = read_message_table(path)
        assert (table.ids, table.user_ids, table.labels.tolist()) == (["x"], ["u"], [-1])

    def test_missing_timestamp_falls_back_to_position(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "a", "user_id": "u"}) + "\n" + json.dumps({"id": "b", "user_id": "u"}) + "\n")
        messages = read_messages(path)
        assert [m.timestamp for m in messages] == [0, 1]

    def test_label_encoding(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"id": "a", "user_id": "u", "label": 0}) + "\n"
            + json.dumps({"id": "b", "user_id": "u", "label": 1}) + "\n"
            + json.dumps({"id": "c", "user_id": "u"}) + "\n"
        )
        messages = read_messages(path)
        assert [m.label for m in messages] == [0, 1, None]

    @pytest.mark.parametrize("line, says", [
        (b'{"id": "x", "text": "caf\xff"}', "can't decode byte 0xff"),
        (b'{"id": "x", ', "Expecting"),
        (b'["x", "u"]', "not a JSON object"),
        (b'{"user_id": "u"}', "no 'id'"),
        (b'{"id": "x", "user_id": "u", "timestamp": "noon"}',
         "'timestamp' must be a non-negative integer, got 'noon'"),
        (b'{"id": "x", "user_id": "u", "label": "spam"}', "'label' must be 0, 1 or null, got 'spam'"),
        (b'{"id": "x", "user_id": "u", "links": "http://a.io"}', "'links' must be a list of strings"),
        (b'{"id": "x", "user_id": "u", "label": 0.7}', "'label' must be 0, 1 or null, got 0.7"),
        (b'{"id": "x", "user_id": "u", "label": true}', "'label' must be 0, 1 or null, got True"),
        (b'{"id": "x", "user_id": "u", "timestamp": 1.9}',
         "'timestamp' must be a non-negative integer, got 1.9"),
        (b'{"id": "x", "user_id": "u", "label": "1"}', "'label' must be 0, 1 or null, got '1'"),
        (b'{"id": "x", "user_id": "u", "target_id": 7}',
         "'target_id' must be a string without a lone surrogate, or null, got 7"),
        (b'{"id": "x", "user_id": "u", "target_id": [7]}', "'target_id' must be .*, got \\[7\\]"),
        (b'{"id": "x", "user_id": "u", "target_id": {}}', "'target_id' must be .*, got {}"),
        (b'{"id": "x", "user_id": null}',
         "'user_id' must be a non-empty string without a lone surrogate, got None"),
        (b'{"id": "x", "user_id": 5}', "'user_id' must be .*, got 5"),
        (b'{"id": "x", "user_id": "u", "text": null}',
         "'text' must be a string without a lone surrogate, got None"),
        (b'{"id": "x", "user_id": "u", "text": ["x"]}', "'text' must be .*, got \\['x'\\]"),
        (b'{"id": "x", "user_id": "u", "is_retweet": "false"}',
         "'is_retweet' must be true or false, got 'false'"),
        (b'{"id": "x", "user_id": "u", "is_retweet": 1}', "'is_retweet' must be true or false, got 1"),
        (b'{"id": "x", "user_id": "u", "is_retweet": null}',
         "'is_retweet' must be true or false, got None"),
        # the contract's own decisions, and values that once failed later, naming only the id
        (b'{"id": null, "user_id": "u"}', "'id' must be a string .*, got None"),
        (b'{"id": 7, "user_id": "u"}', "'id' must be a string .*, got 7"),
        (b'{"id": "a"}', "the record has no 'user_id'"),
        (b'{"id": "a", "user_id": ""}', "'user_id' must be a non-empty string .*, got ''"),
        (b'{"id": "c", "user_id": "u", "links": [3]}', "'links' must be .*, got \\[3\\]"),
        (b'{"id": "h\\tx", "user_id": "u"}', "'id' must be a string without a tab.*, got 'h\\\\tx'"),
        (b'{"id": "g", "user_id": "a\\ud800"}', "'user_id' must be .*lone surrogate, got 'a\\\\ud800'"),
        (b'{"id": "t", "user_id": "u", "timestamp": -3}',
         "'timestamp' must be a non-negative integer, got -3"),
        (b'{"id": "a", "user_id": "u", "label": 3}', "'label' must be 0, 1 or null, got 3"),
    ], ids=["utf8", "truncated", "not_object", "no_id", "timestamp", "label", "list",
            "label_fraction", "label_bool", "timestamp_fraction", "label_string", "target_int",
            "target_list", "target_object", "user_null", "user_int", "text_null", "text_list",
            "retweet_string", "retweet_int", "retweet_null", "id_null", "id_int", "no_user",
            "user_empty", "links_int", "id_tab", "user_surrogate", "timestamp_negative",
            "label_three"])
    def test_malformed_line_names_file_and_line(self, tmp_path, line, says):
        path = tmp_path / "m.jsonl"
        good = json.dumps({"id": "a", "user_id": "u"}).encode()
        path.write_bytes(good + b"\n\n" + line + b"\n" + good + b"\n")
        errors = []
        for read in (read_messages, read_message_table):  # both readers, in the same words
            with pytest.raises(DataError, match=f"m.jsonl, line 3: .*{says}") as error:
                read(path)
            errors.append(str(error.value))
        assert errors[0] == errors[1]
        try:
            record = json.loads(line)
        except ValueError:  # not UTF-8 or not JSON: no record holds it
            return
        # the in-memory records, the second of three, in the same words after the location
        with pytest.raises(DataError, match=f"^record 1: .*{says}") as error:
            message_table([json.loads(good), record, json.loads(good)])
        assert str(error.value).removeprefix("record 1: ") == \
            errors[0].removeprefix(f"{path}, line 3: ")

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([f.name for f in MESSAGE_FIELDS]), st.just(ABSENT) | JSON_VALUES)
    def test_a_field_of_any_json_type_loads_as_documented_or_fails_by_name(self, tmp_path_factory,
                                                                          field, value):
        if value is not ABSENT:  # what the line holds: JSON reads "\ud800\udfff" as one character
            value = json.loads(json.dumps(value))
        rec = {k: v for k, v in {**VALID_RECORD, field: value}.items() if v is not ABSENT}
        path = tmp_path_factory.mktemp("records") / "m.jsonl"
        path.write_text(json.dumps({"id": "m0", "user_id": "u0"}) + "\n\n" + json.dumps(rec) + "\n")
        expected = documented(field, value)
        if expected is ABSENT:
            with pytest.raises(DataError, match=f"m.jsonl, line 3: .*'{field}'"):
                read_messages(path)
            return
        loaded = read_messages(path)[-1]
        got = getattr(loaded, field)
        assert got == expected and type(got) is type(expected), (field, value, got)
        assert loaded._asdict() == {**VALID_RECORD, field: expected}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(MESSAGES, max_size=5))
    def test_drawn_messages_round_trip(self, tmp_path_factory, messages):
        path = tmp_path_factory.mktemp("messages") / "m.jsonl"
        write_messages(path, messages)
        assert records_of(read_messages(path)) == messages

    def test_readme_input_table_is_the_field_table(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index("| field | JSON value | absent | null |") + 2
        rows = lines[start:start + len(MESSAGE_FIELDS) + 1]
        assert rows == [f"| `{f.name}` | {f.accepts} | {f.absent or 'an error'} | "
                        f"{'as absent' if f.nullable else 'an error'} |"
                        for f in MESSAGE_FIELDS] + [""]

    def test_follows_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "follows.tsv"
        path.write_bytes(b"a\tb\n\nc\td\n")
        assert read_follows(path) == [("a", "b"), ("c", "d")]

    @pytest.mark.parametrize("line, says", [
        (b"a\tb\tc", "3 tab-separated columns, not 2"),
        (b"a", "1 tab-separated columns, not 2"),
        (b"a\tcaf\xff", "can't decode byte 0xff"),
        (b"a\t", "an empty column"),
    ], ids=["three_columns", "one_column", "utf8", "empty_column"])
    def test_malformed_follows_line_names_file_and_line(self, tmp_path, line, says):
        path = tmp_path / "follows.tsv"
        path.write_bytes(b"u1\tu2\n\n" + line + b"\nu2\tu1\n")
        with pytest.raises(DataError, match=f"follows.tsv, line 3: .*{says}"):
            read_follows(path)


def reference_columns(messages) -> dict:
    """The `MessageTable` columns of messages, one message at a time: sorted
    by (timestamp, id), each text normalized and split on its own."""
    def keys(m):
        words = m.text.split()
        tags = m.hashtags or [w[1:] for w in words if w[:1] == "#"]
        links = m.links or [w for w in words if w.startswith(("http://", "https://"))]
        mentions = m.mentions or [w[1:].rstrip(string.punctuation) for w in words if w[:1] == "@"]
        return (tuple(t.lower() for t in tags if t != ""),
                tuple(normalize_link(u) for u in links if normalize_link(u) != ""),
                tuple(x.lower() for x in mentions if x != ""))

    ordered = sort_chronologically(messages)
    return {"ids": [m.id for m in ordered], "user_ids": [m.user_id for m in ordered],
            "target_ids": [m.target_id for m in ordered], "texts": [m.text for m in ordered],
            "normalized": [normalize_text(m.text) for m in ordered],
            "entities": [keys(m) for m in ordered],
            "labels": [-1 if m.label is None else m.label for m in ordered],
            "retweets": [m.is_retweet for m in ordered]}


def in_ranges(n: int):
    """While it is entered, `read_message_table` reads a file in n byte ranges, by a pool of
    n workers when n > 1, as on n usable CPUs."""
    return mock.patch.object(data_model, "_workers", lambda: n)


def columns_of(table) -> dict:
    return {f.name: (getattr(table, f.name).tolist() if f.name in ("labels", "retweets")
                     else getattr(table, f.name)) for f in fields(table)}


def assert_columns(table, messages):
    expected = reference_columns(messages)
    assert [f.name for f in fields(table)] == list(expected)
    for name, column in expected.items():
        got = getattr(table, name)
        assert (got.tolist() if isinstance(got, np.ndarray) else got) == column, name
    assert (table.labels.dtype, table.retweets.dtype) == (np.int8, bool)
    assert len(table) == len(messages)


class TestMessageTable:
    RECORDS = [
        {"id": "b\u2028line", "user_id": "u1", "text": "Hi #Win @Bob, see http://X.co/a",
         "timestamp": 3, "label": 1},
        {"id": "a", "user_id": "u2", "text": "  Hi  #win!  ", "timestamp": 3, "is_retweet": True,
         "hashtags": ["Listed", ""], "links": ["  ", "HTTP://Y.io/B"], "mentions": ["Ann"]},
        {"id": "z", "user_id": "u1", "text": "no time", "target_id": "t1", "label": 0},
        {"id": "日本", "user_id": "u3", "text": "", "timestamp": 0, "target_id": "",
         "label": None},
        {"id": "", "user_id": "u2", "text": "@! # http", "timestamp": 3},
    ]

    def test_read_columns_equal_the_message_path(self, tmp_path):
        path = tmp_path / "m.jsonl"
        lines = [json.dumps(r, ensure_ascii=False).encode() for r in self.RECORDS]
        # CRLF line ends and a blank line: hashed as they are, read as the messages they hold
        path.write_bytes(b"\r\n".join(lines[:2] + [b""] + lines[2:]) + b"\r\n")
        table, sha256 = read_message_table(path)
        assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        messages = read_messages(path)
        assert_columns(table, messages)
        # the record without a timestamp takes its line's index; ids break timestamp ties
        assert table.ids == ["日本", "", "a", "b\u2028line", "z"]
        assert table.entities[1:4] == [((), (), ()), (("listed",), ("http://y.io/B",), ("ann",)),
                                       (("win",), ("http://x.co/a",), ("bob",))]
        assert table.labels.tolist() == [-1, -1, -1, 1, 0]

    def test_equal_strings_share_one_object(self, tmp_path):
        # each message holds strings of its own, as the JSON decoder gives them; within a
        # range they share one object (ranges read by workers of their own share none)
        messages = [msg(mid, user="".join(["u", "1"]), text=" ".join(["hi", "there"]))
                    for mid in "ab"]
        assert messages[0]["user_id"] is not messages[1]["user_id"]
        path = tmp_path / "m.jsonl"
        write_messages(path, messages)
        with in_ranges(1):
            tables = [message_table(messages), read_message_table(path)[0]]
        for table in tables:
            assert table.user_ids[0] is table.user_ids[1]
            assert table.texts[0] is table.texts[1] is table.normalized[0]
            assert table.entities[0] is table.entities[1]

    def test_rows_are_a_range_of_every_column(self):
        messages = [msg(f"m{i}", user=f"u{i % 2}", text=f"#t{i % 3}", ts=i, label=i % 2)
                    for i in range(6)]
        assert_columns(message_table(messages).rows(2, 5), rows_of(messages)[2:5])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(MESSAGES, max_size=6))
    def test_drawn_messages_give_the_message_path_columns(self, tmp_path_factory, messages):
        assert_columns(message_table(messages), rows_of(messages))
        path = tmp_path_factory.mktemp("table") / "m.jsonl"
        write_messages(path, messages)
        table, sha256 = read_message_table(path)
        assert_columns(table, rows_of(messages))
        assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(MESSAGES, st.booleans(), st.sampled_from([b"\n", b"\r\n"]),
                              st.integers(0, 2)), max_size=6),
           st.booleans(), st.integers(0, 5), st.integers(2, 4))
    def test_ranged_read_equals_the_one_range_read(self, tmp_path_factory, lines, long_line,
                                                   at, n):
        # each drawn message, without its timestamp when drawn so, ends in LF or CRLF and
        # is followed by 0 to 2 blank lines; the last line may lack its end, and one may
        # hold a text longer than any range; no message at all is the empty file
        records = [{k: v for k, v in m.items() if k != "timestamp" or keep}
                   for m, keep, _, _ in lines]
        if long_line and records:
            records[at % len(records)]["text"] = "spam " * 400
        data = b"".join(json.dumps(r, ensure_ascii=False).encode() + end + end * blanks
                        for r, (_, _, end, blanks) in zip(records, lines))
        if data and at % 2:
            data = data.rstrip(b"\r\n")
        path = tmp_path_factory.mktemp("ranges") / "m.jsonl"
        path.write_bytes(data)
        with in_ranges(1):
            table, sha256 = read_message_table(path)
        with in_ranges(n):
            ranged, ranged_sha256 = read_message_table(path)
        assert ranged_sha256 == sha256 == hashlib.sha256(data).hexdigest()
        assert columns_of(ranged) == columns_of(table)
        # a missing timestamp is the index of the message's line in the whole file
        assert_columns(ranged, read_messages(path))

    def test_the_first_bad_line_is_named_and_no_worker_is_left(self, tmp_path, monkeypatch):
        good = json.dumps({"id": "a", "user_id": "u"}).encode() + b"\n"
        lines = [good.replace(b'"a"', f'"m{i}"'.encode()) for i in range(40)]
        path = tmp_path / "m.jsonl"
        path.write_bytes(b"".join(lines))
        read = data_model._read_range

        def slow_first_range(path, start, *rest):  # range 1's error comes back first from a pool
            if start == 0:
                time.sleep(0.3)
            return read(path, start, *rest)
        monkeypatch.setattr(data_model, "_read_range", slow_first_range)
        with in_ranges(2):
            assert len(read_message_table(path)[0]) == 40
            assert multiprocessing.active_children() == []
            lines[4], lines[35] = b'{"id": "x", \n', b'{"user_id": "u"}\n'
            path.write_bytes(b"".join(lines))
            with pytest.raises(DataError, match=r"m.jsonl, line 5: Expecting"):
                read_message_table(path)
            assert multiprocessing.active_children() == []
            lines[4] = good
            path.write_bytes(b"".join(lines))
            with pytest.raises(DataError, match=r"m.jsonl, line 36: the record has no 'id'"):
                read_message_table(path)

    def test_the_callers_gc_state_is_kept(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_messages(path, [msg("a"), msg("b")])
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a"}\n')
        assert gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                for n in (1, 2):
                    with in_ranges(n):
                        read_message_table(path)
                        assert gc.isenabled() is enabled
                        with pytest.raises(DataError):
                            read_message_table(bad)
                        assert gc.isenabled() is enabled
                with pytest.raises(ZeroDivisionError):
                    with gc_paused():
                        assert not gc.isenabled()
                        1 / 0
                assert gc.isenabled() is enabled
        finally:
            gc.enable()
