"""Core data types: message records and rows, the message table, relation
groups, the message index, chronological splits.

A message is a record, a decoded JSON object, until it is a table row:
`_record_fields` checks its fields against one table, `MESSAGE_FIELDS`, and
fills in the defaults of those it lacks, whether the record is a line of a
JSONL file (`read_message_table`) or an item of a list (`message_table`).
Past the check a dataset is one `MessageTable` of columns, built by one row
builder (`_columns`) in one pass in which no record outlives its row: over
the list, or over each byte range of the file, the ranges read in parallel
by `_map_pool`, the fork pool the `cli` stages map their subsets over too,
and joined in file order. The checks of a whole dataset (unique ids,
labeled training slices) are `evaluation.prepare_dataset`'s. Groups
("hubs") collect messages that share a relation key: same author, same
normalized text, same link, and so on. One pass over the table's columns
gives each relation's keys and their members: `build_index` fills a
`GroupTable` from it, and `build_groups` is its view by message id, over the
checked `MessageRow`s that `read_messages` returns. A `MessageIndex` holds
ids, labels and every message's groups as arrays, and restricts the groups to
a subset by an edge mask, relation codes kept. Past the index a message is
its chronological position, the form every later module takes. All
downstream modules consume these types read-only.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import string
import tokenize
import unicodedata
import zipfile
import zlib
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Iterable, NamedTuple, Optional
from urllib.parse import urlsplit, urlunsplit

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid configuration (unknown relation tags, bad fractions, ...)."""


class DataError(ValueError):
    """Raised for datasets that cannot satisfy an operation's preconditions."""


def write_artifact(path, tag: str, header: dict, arrays: dict | None = None) -> None:
    """Write a file one stage leaves for another: the JSON object of `header`
    after a "format" key holding `tag`, alone when `arrays` is None, else as
    the `header` bytes (UTF-8) of an npz archive of `arrays`, in that order,
    deflated at level 1, every member dated 1980 by `zipfile`: the same
    arrays give the same bytes."""
    text = json.dumps({"format": tag, **header}, ensure_ascii=False)
    if arrays is None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    arrays = {"header": np.frombuffer(text.encode("utf-8"), dtype=np.uint8), **arrays}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as archive:
        for name, array in arrays.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(array), allow_pickle=False)


def _non_finite(constant: str):
    """`json.loads`'s `parse_constant` for stage files: no stage writes NaN or Infinity."""
    raise ValueError(f"the non-finite constant {constant}")


def read_artifact(path, tag: str, stage: str, parse):
    """`parse(header, arrays)` of a `write_artifact` file (an npz archive by its
    `.npz` suffix, deflated or, as earlier versions wrote it, stored), the
    header without its "format" key. A file that is missing, damaged (a zip
    record flagged encrypted or of an unknown version, an npy header numpy
    cannot parse, a NaN or Infinity in the JSON) or of another tag, or that
    `parse` cannot read, raises one `DataError` naming the file and the
    stage that writes it."""
    try:
        if str(path).endswith(".npz"):
            with open(path, "rb") as fh:
                # numpy reads past trailing bytes: the file must end in the archive's end record
                fh.seek(max(fh.seek(0, 2) - 22, 0))
                end = fh.read()
                if len(end) != 22 or end[:4] != b"PK\x05\x06" or end[-2:] != b"\0\0":
                    raise ValueError("the file does not end in a zip end-of-archive record")
                fh.seek(0)
                with np.load(fh, allow_pickle=False) as archive:
                    arrays = {k: archive[k] for k in archive.files}
            raw = arrays.pop("header").tobytes()
        else:
            with open(path, "rb") as fh:
                raw, arrays = fh.read(), {}
        header = json.loads(raw.decode("utf-8"), parse_constant=_non_finite)
        found = header.pop("format", None) if isinstance(header, dict) else None
        if found != tag:
            raise ValueError(f"format {found!r}")
        return parse(header, arrays)
    except (OSError, ValueError, KeyError, TypeError, IndexError, EOFError, RuntimeError,
            zipfile.BadZipFile, zlib.error, tokenize.TokenError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise DataError(f"{path}: not a {tag} file ({reason}); rerun the {stage} stage") from exc


def check_setting(ok: bool, key: str, accepts: str, value) -> None:
    """Raise a `ConfigError` naming the config key unless `ok`."""
    if not ok:
        raise ConfigError(f"config key {key!r} must be {accepts}, got {value!r}")


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@contextmanager
def gc_paused():
    """The body runs with the cyclic garbage collector off: code that makes
    many objects and no reference cycles, such as decoding a file, then pays
    no collections. The caller's GC state comes back after, however the body ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


_JOB = None  # in a pool worker, the job of its `_map_pool`, inherited by fork


def _start_worker(job) -> None:
    global _JOB
    _JOB = job


def _run_job(i: int):
    return _JOB(i)


def _workers() -> int:
    """The workers of a `_map_pool`: one per CPU this process may use (its
    affinity set where the platform has one), or 1 where it cannot fork."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _map_pool(job, n: int) -> list:
    """[job(i) for i in range(n)], run by a fork pool of `_workers()`
    workers, at most n, or inline when that is one. The workers inherit all
    that `job` reads, so only i and what `job` returns are pickled. The error
    of the lowest-numbered failing job is raised, as the inline loop raises
    it, once the other jobs have ended, and no worker outlives the call."""
    workers = min(_workers(), n)
    if workers <= 1:
        return [job(i) for i in range(n)]
    pool = multiprocessing.get_context("fork").Pool(workers, _start_worker, (job,))
    try:
        # imap, not map: its results, and so its errors, come in job order
        return list(pool.imap(_run_job, range(n)))
    except (KeyboardInterrupt, SystemExit):
        pool.terminate()
        raise
    finally:
        # a failed job does not terminate the pool: a worker killed while it sends a
        # result holds the result queue's lock, and the pool's shutdown then waits on
        # it for ever
        pool.close()
        pool.join()


SPAM = 1
HAM = 0

_SURROGATE = re.compile("[\ud800-\udfff]")


def _utf8(s) -> bool:
    """A string the UTF-8 artifacts can carry: one without a lone surrogate."""
    return isinstance(s, str) and (s.isascii() or not _SURROGATE.search(s))


class MessageField(NamedTuple):
    """A message field: `check` passes what `accepts` says, in the words of its error
    and of the README table; a record without it, the one at index i of its sequence,
    holds `default(i)`, which `absent` says (both None: the field is required)."""

    name: str
    accepts: str
    check: Callable
    absent: Optional[str] = None
    default: Optional[Callable] = None
    nullable: bool = False  # a null reads as absent


_STRINGS = ("a list of strings without a lone surrogate",
            lambda v: type(v) is list and (not v or all(map(_utf8, v))), "`[]`", lambda i: [])
MESSAGE_FIELDS = (
    MessageField("id", "a string without a tab, CR, newline or lone surrogate",
                 lambda v: _utf8(v) and "\t" not in v and "\r" not in v and "\n" not in v),
    MessageField("user_id", "a non-empty string without a lone surrogate",
                 lambda v: v != "" and _utf8(v)),
    MessageField("text", "a string without a lone surrogate", _utf8, '`""`', lambda i: ""),
    MessageField("timestamp", "a non-negative integer", lambda v: type(v) is int and v >= 0,
                 "the index of its line, or in its list of records, from 0", lambda i: i,
                 nullable=True),
    MessageField("target_id", "a string without a lone surrogate, or null",
                 lambda v: v is None or _utf8(v), "no target", lambda i: None, nullable=True),
    MessageField("links", *_STRINGS),
    MessageField("hashtags", *_STRINGS),
    MessageField("mentions", *_STRINGS),
    MessageField("is_retweet", "true or false", lambda v: v is True or v is False, "`false`",
                 lambda i: False),
    MessageField("label", "0, 1 or null", lambda v: v is None or (type(v) is int and v in (0, 1)),
                 "unlabeled", lambda i: None, nullable=True),
)

# a message's checked fields, as `read_messages` returns them: label 1 spam, 0 ham, None unlabeled
MessageRow = namedtuple("MessageRow", [f.name for f in MESSAGE_FIELDS])


def normalize_text(text: str) -> str:
    """Canonical text key: NFC, lowercase, collapsed whitespace, ends stripped of punctuation."""
    s = " ".join(unicodedata.normalize("NFC", text).lower().split())
    if s[:1].isalnum() and s[-1:].isalnum():  # letters and digits are never punctuation
        return s
    start, end = 0, len(s)
    while start < end and unicodedata.category(s[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(s[end - 1]).startswith("P"):
        end -= 1
    return s[start:end]


def normalize_link(url: str) -> str:
    """Lowercase the scheme and host of a URL, leave path/query untouched. A
    link without a host, or one `urlsplit` rejects, is its stripped text."""
    url = url.strip()
    try:
        parts = urlsplit(url)
    except ValueError:  # an unclosed IPv6 bracket, a host that NFKC changes
        return url
    if not parts.netloc:
        return url
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), parts.path, parts.query, parts.fragment))


_NO_KEYS = ((), (), ())  # the keys of a message without any: one shared tuple


def _entities(text: str, hashtags: list, links: list, mentions: list) -> tuple:
    """(hashtags, links, mentions) as group keys: each the message's list, else
    parsed from one split of its text; tags and mentions lowercased, links
    `normalize_link`ed, and an empty key dropped: it would group messages that
    share nothing."""
    words = text.split() if "#" in text or "@" in text or "http" in text else ()
    if not (words or hashtags or links or mentions):
        return _NO_KEYS
    tags = hashtags or [w[1:] for w in words if w.startswith("#")]
    links = links or [w for w in words if w.startswith(("http://", "https://"))]
    mentions = mentions or [w[1:].rstrip(string.punctuation) for w in words if w.startswith("@")]
    return (tuple(t.lower() for t in tags if t), tuple(filter(None, map(normalize_link, links))),
            tuple(x.lower() for x in mentions if x))


# relation name -> the (key, position) pairs of a `MessageTable`, one pair per distinct key
# of a message: its user id, normalized text, target id or `_entities`; an empty text or
# target is no key
_RELATION_KEYS = {
    "user": lambda t: zip(t.user_ids, range(len(t))),
    "text": lambda t: ((text, i) for i, text in enumerate(t.normalized) if text),
    "link": lambda t: ((k, i) for i, e in enumerate(t.entities) if e[1] for k in set(e[1])),
    "hashtag": lambda t: ((k, i) for i, e in enumerate(t.entities) if e[0] for k in set(e[0])),
    "mention": lambda t: ((k, i) for i, e in enumerate(t.entities) if e[2] for k in set(e[2])),
    "track": lambda t: ((target, i) for i, target in enumerate(t.target_ids) if target),
    "user_hashtag": lambda t: (((user, k), i) for i, (user, e) in
                               enumerate(zip(t.user_ids, t.entities)) if e[0] for k in set(e[0])),
}
RELATION_NAMES = tuple(_RELATION_KEYS)


@dataclass(frozen=True, eq=False)
class MessageTable:
    """A dataset as columns, row i the message at chronological position i,
    (timestamp, id) ascending. Each text is normalized and split (`_entities`)
    once, as the table is built, and equal strings, and equal tuples of a
    message's keys, share one object within a range of a file read in
    parallel (`_columns`)."""

    ids: list
    user_ids: list
    target_ids: list  # None for no target
    texts: list
    normalized: list  # `normalize_text` of each text
    entities: list  # `_entities` of each message
    labels: np.ndarray  # int8: 1 spam, 0 ham, -1 unlabeled
    retweets: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, a: int, b: int) -> "MessageTable":
        """The messages at positions a to b (exclusive)."""
        return MessageTable(*(getattr(self, f.name)[a:b] for f in fields(self)))

    @classmethod
    def _of_ranges(cls, parts: list) -> "MessageTable":
        """The table of the `_columns` of consecutive ranges of one sequence,
        whose lists it takes over: joined in order and sorted by (timestamp, id)."""
        columns = parts[0]  # the timestamps, then the table's fields
        for part in parts[1:]:
            for column, more in zip(columns, part):
                column.extend(more)
            part.clear()
        order = sorted(range(len(columns[1])), key=columns[1].__getitem__)
        order.sort(key=columns[0].__getitem__)  # stable: (timestamp, id) order
        for j in range(1, 9):  # each sorted column replaces its unsorted one
            columns[j] = [columns[j][i] for i in order]
        *columns, labels, retweets = columns[1:]
        return cls(*columns, np.array(labels, dtype=np.int8), np.array(retweets, dtype=bool))


def _shared(entities: tuple, one: dict) -> tuple:
    """`_entities`' keys as `one` holds them: the tuple of keys, and each key,
    the object of `one` equal to it, added when `one` has none."""
    if not any(entities):
        return _NO_KEYS
    got = one.get(entities)
    if got is None:
        got = one[entities] = tuple(tuple(map(one.setdefault, part, part)) for part in entities)
    return got


def _columns(messages: Iterable) -> list:
    """The columns of messages as checked fields in `MESSAGE_FIELDS` order
    (`_record_fields`' lists or `MessageRow`s), in their order: the
    timestamps, then the `MessageTable` fields, labels and retweets as lists.
    Read in one pass with the cyclic GC paused, in which none is held past
    its row; equal strings, and equal key tuples (`_shared`), share one object."""
    one: dict = {}  # a string -> the object every equal string of the columns is
    columns = [[] for _ in range(9)]
    with gc_paused():
        for id, user_id, text, timestamp, target_id, links, hashtags, mentions, retweet, label \
                in messages:
            key = normalize_text(text)
            row = (timestamp, id, one.setdefault(user_id, user_id),
                   target_id and one.setdefault(target_id, target_id),
                   one.setdefault(text, text), one.setdefault(key, key),
                   _shared(_entities(text, hashtags, links, mentions), one),
                   -1 if label is None else label, retweet)
            for column, value in zip(columns, row):
                column.append(value)
    return columns


def relations_from_names(names: Iterable[str]) -> list:
    """The relation names, each checked against `RELATION_NAMES`."""
    names = list(names)
    for name in names:
        if name not in _RELATION_KEYS:
            raise ConfigError(f"unknown relation tag: {name!r} (expected one of {RELATION_NAMES})")
    return names


def _relation_keys(table: MessageTable, relations: Iterable[str]) -> dict:
    """Relation -> key -> the ascending positions of the messages with that
    key, relations in name order; each a name of `RELATION_NAMES`, as the
    config's check or `relations_from_names` leaves them."""
    buckets = {}
    for name in sorted(set(relations)):
        keys = buckets[name] = defaultdict(list)
        for key, i in _RELATION_KEYS[name](table):
            keys[key].append(i)
    return buckets


@dataclass(frozen=True)
class Group:
    """A hub: all message ids sharing one relation key. Always has >= 2 members."""

    relation: str
    key: object  # a string; a (user id, hashtag) pair for user_hashtag
    member_ids: tuple

    def __len__(self):
        return len(self.member_ids)


def build_groups(messages: list, relations: Iterable[str]) -> list:
    """The groups of `MessageRow`s as message ids: the id-level view of
    `build_index`'s table that the benchmark's oracle reads, and tests take as
    the reference.

    Sorted by (relation, key), member ids sorted within each group; a key
    shared by fewer than 2 distinct ids makes no group.
    """
    groups, table = [], MessageTable._of_ranges([_columns(messages)])
    for name, keys in _relation_keys(table, relations).items():
        for key in sorted(keys):
            ids = tuple(sorted({table.ids[i] for i in keys[key]}))
            if len(ids) >= 2:
                groups.append(Group(name, key, ids))
    return groups


class GroupTable:
    """Groups as arrays, one edge per (group, member) in group order, each
    group's members in ascending chronological position: the form both joint
    models ground from. Their message variables come from `variables`, then
    one hub per group, which the hinge-loss MRF starts at its `means`. Every
    slice of an index keeps its `relations`, the configured ones sorted."""

    def __init__(self, relations: list, group_relation, sizes, members):
        self.relations = relations  # sorted relation names
        self.group_relation = np.asarray(group_relation, dtype=np.int64)  # group -> relation index
        self.sizes = np.asarray(sizes, dtype=np.int64)  # group -> member count
        self.members = np.asarray(members, dtype=np.int32)  # edge -> member position
        self.group = np.repeat(np.arange(len(self.sizes)), self.sizes)  # edge -> group
        self.relation = self.group_relation[self.group]  # edge -> relation index

    def __len__(self) -> int:
        return len(self.sizes)

    def variables(self, values: np.ndarray, free: np.ndarray | None = None) -> tuple:
        """A hub model's message variables, the grouped positions where the mask
        `free` holds (all by default) in position order, and each position's
        variable, -1 for none; a `DataError` if `values` is NaN at a grouped one."""
        grouped = np.unique(self.members)
        missing = grouped[np.isnan(values[grouped])]
        if len(missing):
            raise DataError(f"{len(missing)} grouped messages lack priors "
                            f"(first: position {missing[0]})")
        messages = grouped if free is None else grouped[free[grouped]]
        variable = np.full(len(values), -1, dtype=np.int64)
        variable[messages] = np.arange(len(messages))
        return messages, variable

    def means(self, values: np.ndarray) -> np.ndarray:
        """Each group's mean of `values` (over positions), added in member order."""
        return np.bincount(self.group, weights=values[self.members],
                           minlength=len(self)) / self.sizes


INDEX_FORMAT = "relspam-index v2"


@dataclass(frozen=True, eq=False)
class MessageIndex:
    """What the stages after featurize need of the dataset: the ids in
    chronological order, their labels (int8, -1 unlabeled), and the groups of
    every message in (relation, key) order, as a table whose members are
    chronological positions (int32). After featurize a message is its position:
    every label, score and group member is read by it, and `ids` names the
    messages only in the files a stage writes."""

    ids: list
    labels: np.ndarray
    table: GroupTable
    source_sha256: str = ""  # of the JSONL the index was built from

    def inside(self, *ranges) -> np.ndarray:
        """Edge mask: the member lies in one of the half-open position ranges."""
        pos = self.table.members
        return np.any([(pos >= a) & (pos < b) for a, b in ranges], axis=0)

    def groups(self, *ranges) -> GroupTable:
        """The groups of the messages in the position ranges alone: the
        edges inside them, less groups left with < 2 members, codes kept."""
        t = self.table
        inside = self.inside(*ranges)
        sizes = np.bincount(t.group[inside], minlength=len(t))
        kept = sizes >= 2
        inside &= kept[t.group]
        return GroupTable(t.relations, t.group_relation[kept], sizes[kept], t.members[inside])


def build_index(table: MessageTable, relations: list, source_sha256: str = "") -> MessageIndex:
    """The index of a message table: its groups in (relation, key) order,
    each group's members in position order."""
    buckets = _relation_keys(table, relations)
    codes, sizes, members = [], [], []
    for code, keys in enumerate(buckets.values()):
        for key in sorted(keys):
            if len(keys[key]) >= 2:
                codes.append(code)
                sizes.append(len(keys[key]))
                members += keys[key]
    return MessageIndex(table.ids, table.labels, GroupTable(list(buckets), codes, sizes, members),
                        source_sha256)


def write_index(path, index: MessageIndex) -> None:
    """A `write_artifact` archive, deflated at level 1: the label, group and
    edge arrays, and a header of the group table's relations, source sha256
    and ids."""
    t = index.table
    write_artifact(path, INDEX_FORMAT, {"relations": t.relations,
                                        "source_sha256": index.source_sha256, "ids": index.ids},
                   {"labels": index.labels, "group_relation": t.group_relation.astype(np.int8),
                    "group_size": t.sizes.astype(np.int32), "member": t.members})


def read_index(path) -> MessageIndex:
    """Read a `write_index` file; anything else raises `DataError`. Codes
    index the header's relations sorted: older files list them in config order."""
    def parse(header, arrays):
        ids, relations = header["ids"], sorted(set(header["relations"]))
        labels, codes, sizes, member = (arrays[k] for k in
                                        ("labels", "group_relation", "group_size", "member"))
        if (len(labels), len(codes), int(sizes.sum())) != (len(ids), len(sizes), len(member)):
            raise ValueError("array lengths do not match the header")
        if codes.max(initial=-1) >= len(relations):
            raise ValueError("a relation code names no relation of the header")
        return MessageIndex(ids, labels, GroupTable(relations, codes, sizes, member),
                            header["source_sha256"])
    return read_artifact(path, INDEX_FORMAT, "featurize", parse)


def sort_chronologically(messages: list) -> list:
    """`MessageRow`s sorted by (timestamp, id); id breaks timestamp ties deterministically."""
    return sorted(messages, key=lambda m: (m.timestamp, m.id))


@dataclass(frozen=True)
class SubsetSplit:
    train: tuple  # (start, end) half-open index range over the sorted dataset
    validation: tuple
    test: tuple


def chronological_split(messages, n_subsets: int, fractions: tuple) -> list:
    """The split plan of the timestamp-sorted dataset `messages` (a sized
    sequence): a `SubsetSplit` per contiguous subset in temporal order, each
    split into train / validation / test slices in temporal order. `n_subsets`
    and the (train, validation, test) `fractions` arrive checked by the config."""
    f_train, f_val, _ = fractions
    n = len(messages)
    if n < n_subsets:
        raise DataError(f"dataset of {n} messages cannot be split into {n_subsets} subsets")
    ends = [(i * n) // n_subsets for i in range(n_subsets + 1)]
    cuts = [(a, a + int((b - a) * f_train), a + int((b - a) * (f_train + f_val)), b)
            for a, b in zip(ends, ends[1:])]
    return [SubsetSplit(train=(a, t), validation=(t, v), test=(v, b)) for a, t, v, b in cuts]


# --- line-delimited ingestion / serialization ---

def _record_fields(rec, index: int) -> list:
    """The checked fields of the decoded JSON record `rec`, the message at
    `index` of its sequence, in `MESSAGE_FIELDS` order, unknown keys ignored:
    the one check of a message. A null reads as absent in a nullable field, and
    an absent field takes its `default(index)`. Every required field is found
    before any field is checked; a `DataError` names the first that fails."""
    if not isinstance(rec, dict):
        raise DataError("not a JSON object")
    values = []
    for f in MESSAGE_FIELDS:
        value = rec.get(f.name)
        if value is None and (f.nullable or f.name not in rec):
            if f.default is None:
                raise DataError(f"the record has no {f.name!r}")
            value = f.default(index)
        values.append(value)
    for f, value in zip(MESSAGE_FIELDS, values):
        if not f.check(value):
            raise DataError(f"{f.name!r} must be {f.accepts}, got {value!r}")
    return values


def _record_lines(path, lines, first: int = 0):
    """`_record_fields` of each of `lines`, the byte lines of the JSONL file at
    `path` from its line `first` (from 0), as they are read. A line that is not
    UTF-8, not a JSON object or not a message raises `DataError` naming the
    file and the line's number in the whole file."""
    for i, line in enumerate(lines, first):
        try:
            text = line.decode("utf-8").strip()
            if text:
                yield _record_fields(json.loads(text), i)
        except ValueError as exc:  # bad UTF-8 and bad JSON are ValueErrors
            raise DataError(f"{path}, line {i + 1}: {exc}") from None


def read_messages(path) -> list:
    """The `MessageRow`s of a JSONL file, one object per line (`_record_lines`), in file order."""
    with open(path, "rb") as fh:
        return list(map(MessageRow._make, _record_lines(path, fh)))


def _line_ranges(path, n: int) -> tuple:
    """(the sha256 of a file, hashed in blocks, and the file cut at line
    starts into n byte ranges, each (start, end, the index of its first
    line), range k starting at the first line start at or after k/n of the
    file; a line longer than a range leaves the next range empty)."""
    size = os.path.getsize(path)
    digest, starts, firsts, lines = hashlib.sha256(), [0], [], 0
    with open(path, "rb") as fh:
        for k in range(1, n):
            at = max(k * size // n, starts[-1])
            if at > 0:
                fh.seek(at - 1)
                fh.readline()  # to the end of the line that holds byte at - 1
                at = fh.tell()
            starts.append(at)
        ends = starts[1:] + [size]
        fh.seek(0)
        for end in ends:
            firsts.append(lines)
            while block := fh.read(min(end - fh.tell(), 1 << 20)):
                digest.update(block)
                lines += block.count(b"\n")
    return digest.hexdigest(), list(zip(starts, ends, firsts))


def _read_range(path, start: int, end: int, first: int) -> list:
    """The `_columns` of the lines in bytes start to end of a JSONL file, the
    first of them its line `first` (from 0)."""
    with open(path, "rb") as fh:
        fh.seek(start)
        chunk = fh.read(end - start)
    return _columns(_record_lines(path, io.BytesIO(chunk), first))


def read_message_table(path) -> tuple:
    """(the `MessageTable` of a JSONL file as `read_messages` reads it, the
    sha256 of its bytes). The file is cut at line starts into one byte range
    per worker of `_map_pool`, each read by one worker (`_read_range`), and
    the ranges' columns are joined in file order: the table, and the error
    of a bad line, the first in the file, do not depend on the worker count."""
    sha256, ranges = _line_ranges(path, _workers())
    with gc_paused():
        parts = _map_pool(lambda k: _read_range(path, *ranges[k]), len(ranges))
        return MessageTable._of_ranges(parts), sha256


def message_table(records: Iterable) -> MessageTable:
    """The `MessageTable` of decoded JSON records, each checked as a line of a
    JSONL file is, a missing timestamp its index in `records`. A record that
    is not a message raises `DataError` naming that index."""
    def checked():
        for i, rec in enumerate(records):
            try:
                yield _record_fields(rec, i)
            except DataError as exc:
                raise DataError(f"record {i}: {exc}") from None
    return MessageTable._of_ranges([_columns(checked())])


def write_messages(path, records: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted, a key whose value is None left out."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({k: v for k, v in rec.items() if v is not None},
                                sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def read_follows(path) -> list:
    """(follower, followee) pairs of a two-column tab-separated file. A file
    that cannot be read, and a line that is not UTF-8, not two columns or has
    an empty one, raise `DataError` naming the file (and the line)."""
    follows = []
    try:
        fh = open(path, "rb")
    except OSError as exc:  # also a directory
        raise DataError(f"follows file {path}: {exc.strerror}") from None
    with fh:
        for i, line in enumerate(fh, 1):
            try:
                parts = line.decode("utf-8").rstrip("\r\n").split("\t")
            except ValueError as exc:  # bad UTF-8
                raise DataError(f"{path}, line {i}: {exc}") from None
            if parts == [""]:
                continue
            if len(parts) != 2:
                raise DataError(f"{path}, line {i}: {len(parts)} tab-separated columns, not 2")
            if "" in parts:
                raise DataError(f"{path}, line {i}: an empty column")
            follows.append(tuple(parts))
    return follows


def write_follows(path, follows: Iterable[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in follows:
            fh.write(f"{a}\t{b}\n")


def labels_of(messages: Iterable[MessageRow]) -> dict:
    """Map id -> gold label for the labeled subset of messages."""
    return {m.id: m.label for m in messages if m.label is not None}
