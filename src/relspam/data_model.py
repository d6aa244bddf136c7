"""Core data types: messages, relation groups, the message index, dataset
validation, chronological splits.

Messages are ingested from line-delimited JSON records. Groups ("hubs") collect
messages that share a relation key: same author, same normalized text, same
link, and so on; `build_groups` is the one group builder. A `MessageIndex`
holds ids, labels and every message's groups as arrays, and restricts the
groups to a subset by an edge mask. Past the index a message is its
chronological position, the form every later module takes. All downstream
modules consume these types read-only.
"""

from __future__ import annotations

import json
import math
import string
import unicodedata
import zipfile
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional
from urllib.parse import urlsplit, urlunsplit

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid configuration (unknown relation tags, bad fractions, ...)."""


class DataError(ValueError):
    """Raised for datasets that cannot satisfy an operation's preconditions."""


def write_artifact(path, tag: str, header: dict, arrays: dict | None = None,
                   compress: bool = False) -> None:
    """Write a file one stage leaves for another: the JSON object of `header`
    after a "format" key holding `tag`, alone when `arrays` is None, else as
    the `header` bytes (UTF-8) of an npz archive of `arrays`, in that order.
    An archive is written through an open file so numpy adds no suffix."""
    text = json.dumps({"format": tag, **header}, ensure_ascii=False)
    if arrays is None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    with open(path, "wb") as fh:
        (np.savez_compressed if compress else np.savez)(
            fh, header=np.frombuffer(text.encode("utf-8"), dtype=np.uint8), **arrays)


def read_artifact(path, tag: str, stage: str, parse):
    """`parse(header, arrays)` of a `write_artifact` file (an npz archive by its
    `.npz` suffix), the header without its "format" key. A file that is
    missing, damaged or of another tag, or that `parse` cannot read, raises
    one `DataError` naming the file and the stage that writes it."""
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
            header = json.loads(arrays.pop("header").tobytes().decode("utf-8"))
        else:
            with open(path, "rb") as fh:
                header, arrays = json.loads(fh.read().decode("utf-8")), {}
        found = header.pop("format", None) if isinstance(header, dict) else None
        if found != tag:
            raise ValueError(f"format {found!r}")
        return parse(header, arrays)
    except (OSError, ValueError, KeyError, TypeError, IndexError, EOFError,
            zipfile.BadZipFile) as exc:
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


SPAM = 1
HAM = 0

RELATION_NAMES = ("user", "text", "link", "hashtag", "mention", "track", "user_hashtag")


@dataclass
class Message:
    id: str
    user_id: str
    text: str = ""
    timestamp: int = 0
    target_id: Optional[str] = None
    links: list = field(default_factory=list)
    hashtags: list = field(default_factory=list)
    mentions: list = field(default_factory=list)
    is_retweet: bool = False
    label: Optional[int] = None  # 1 spam, 0 ham, None unlabeled


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
    """Lowercase the scheme and host of a URL, leave path/query untouched."""
    parts = urlsplit(url.strip())
    if not parts.netloc:
        return url.strip()
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), parts.path, parts.query, parts.fragment))


def _entities(m: Message) -> tuple:
    """(hashtags, links, mentions): each the message's list, else parsed from one split of its text."""
    words = m.text.split() if "#" in m.text or "@" in m.text or "http" in m.text else ()
    return (m.hashtags or [w[1:] for w in words if w.startswith("#") and len(w) > 1],
            m.links or [w for w in words if w.startswith(("http://", "https://"))],
            m.mentions or [w[1:].rstrip(string.punctuation)
                           for w in words if w.startswith("@") and len(w) > 1])


@dataclass(frozen=True)
class RelationType:
    """A grouping relation: maps a message, with its `_entities`, to zero or more keys."""

    name: str

    def __post_init__(self):
        if self.name not in RELATION_NAMES:
            raise ConfigError(f"unknown relation tag: {self.name!r} (expected one of {RELATION_NAMES})")

    def keys_for(self, m: Message, hashtags, links, mentions) -> Iterable[str]:
        if self.name == "user":
            return [m.user_id]
        if self.name == "text":
            key = normalize_text(m.text)
            return [key] if key else []
        if self.name == "link":
            return {normalize_link(u) for u in links}
        if self.name == "hashtag":
            return {h.lower() for h in hashtags}
        if self.name == "mention":
            return {x.lower() for x in mentions}
        if self.name == "track":
            return [m.target_id] if m.target_id else []
        if self.name == "user_hashtag":
            return {f"{m.user_id}\x1f{h.lower()}" for h in hashtags}
        raise ConfigError(f"unknown relation tag: {self.name!r}")


def relations_from_names(names: Iterable[str]) -> list:
    return [RelationType(n) for n in names]


@dataclass(frozen=True)
class Group:
    """A hub: all message ids sharing one relation key. Always has >= 2 members."""

    relation: str
    key: str
    member_ids: tuple

    def __len__(self):
        return len(self.member_ids)


def build_groups(messages: list, relations: list) -> list:
    """Group messages by relation key; singleton groups are dropped.

    Deterministic and permutation-invariant: the output is sorted by
    (relation, key) and member ids are sorted within each group. A message's
    text is split once (`_entities`) for all of its relations' keys.
    """
    rels = [r if isinstance(r, RelationType) else RelationType(str(r)) for r in relations]
    buckets: dict = {r.name: {} for r in rels}  # relation -> key -> member ids
    for m in messages:
        entities = _entities(m)
        for rel in rels:
            for key in rel.keys_for(m, *entities):
                buckets[rel.name].setdefault(key, []).append(m.id)
    groups = (Group(name, key, tuple(sorted(set(ids)))) for name in sorted(buckets)
              for key, ids in sorted(buckets[name].items()) if len(ids) > 1)
    return [g for g in groups if len(g) >= 2]  # ids may repeat


class GroupTable:
    """Groups as arrays, one edge per (group, member) in group order, each
    group's members in ascending chronological position: the form both joint
    models ground from."""

    def __init__(self, relations: list, group_relation, sizes, members):
        self.relations = relations  # sorted relation names
        self.group_relation = np.asarray(group_relation, dtype=np.int64)  # group -> relation index
        self.sizes = np.asarray(sizes, dtype=np.int64)  # group -> member count
        self.members = np.asarray(members, dtype=np.int32)  # edge -> member position
        self.group = np.repeat(np.arange(len(self.sizes)), self.sizes)  # edge -> group
        self.relation = self.group_relation[self.group]  # edge -> relation index

    def __len__(self) -> int:
        return len(self.sizes)


INDEX_FORMAT = "relspam-index v2"


@dataclass(frozen=True, eq=False)
class MessageIndex:
    """What the stages after featurize need of the dataset: the ids in
    chronological order, their labels (int8, -1 unlabeled), the configured
    relations, and the groups of every message in `build_groups` order, as a
    table whose members are chronological positions (int32). After featurize
    a message is its position: every label, score and group member is read
    by it, and `ids` names the messages only in the files a stage writes."""

    ids: list
    labels: np.ndarray
    relations: list
    table: GroupTable
    source_sha256: str = ""  # of the JSONL the index was built from

    def inside(self, *ranges) -> np.ndarray:
        """Edge mask: the member lies in one of the half-open position ranges."""
        pos = self.table.members
        return np.any([(pos >= a) & (pos < b) for a, b in ranges], axis=0)

    def groups(self, *ranges) -> GroupTable:
        """The groups `build_groups` gives for the messages in the position
        ranges: the edges inside them, less groups left with < 2 members."""
        t = self.table
        inside = self.inside(*ranges)
        sizes = np.bincount(t.group[inside], minlength=len(t))
        kept = sizes >= 2
        inside &= kept[t.group]
        present, codes = np.unique(t.group_relation[kept], return_inverse=True)
        return GroupTable([t.relations[r] for r in present], codes, sizes[kept],
                          t.members[inside])


def build_index(ordered: list, relations: list, source_sha256: str = "") -> MessageIndex:
    """The index of chronologically sorted messages, grouped by `build_groups`."""
    position = {m.id: i for i, m in enumerate(ordered)}
    groups = build_groups(ordered, relations)
    names = sorted(set(relations))
    sizes = [len(g.member_ids) for g in groups]
    members = np.array([position[mid] for g in groups for mid in g.member_ids], dtype=np.int32)
    group = np.repeat(np.arange(len(groups)), sizes)
    table = GroupTable(names, [names.index(g.relation) for g in groups], sizes,
                       members[np.lexsort((members, group))])
    labels = np.array([-1 if m.label is None else m.label for m in ordered], dtype=np.int8)
    return MessageIndex([m.id for m in ordered], labels, list(relations), table, source_sha256)


def write_index(path, index: MessageIndex) -> None:
    """A compressed `write_artifact` archive: the label, group and edge arrays,
    and a header of the relations, source sha256 and ids."""
    t = index.table
    write_artifact(path, INDEX_FORMAT, {"relations": index.relations,
                                        "source_sha256": index.source_sha256, "ids": index.ids},
                   {"labels": index.labels, "group_relation": t.group_relation.astype(np.int8),
                    "group_size": t.sizes.astype(np.int32), "member": t.members}, compress=True)


def read_index(path) -> MessageIndex:
    """Read a `write_index` file; anything else raises `DataError`."""
    def parse(header, arrays):
        ids = header["ids"]
        labels, codes, sizes, member = (arrays[k] for k in
                                        ("labels", "group_relation", "group_size", "member"))
        if (len(labels), len(codes), int(sizes.sum())) != (len(ids), len(sizes), len(member)):
            raise ValueError("array lengths do not match the header")
        table = GroupTable(sorted(set(header["relations"])), codes, sizes, member)
        return MessageIndex(ids, labels, header["relations"], table, header["source_sha256"])
    return read_artifact(path, INDEX_FORMAT, "featurize", parse)


def validate_dataset(messages: list) -> list:
    """The errors of a dataset, empty when it is valid: duplicate ids, ids the
    TSV artifacts cannot carry (a tab, CR or newline), string fields that are
    not strings or that the UTF-8 artifacts cannot carry (a lone surrogate)
    and invalid timestamps. Never mutates."""
    errors = []
    seen = set()
    dups = set()
    bad_timestamps = []
    for m in messages:
        if m.id in seen:
            dups.add(m.id)
        seen.add(m.id)
        if "\t" in m.id or "\r" in m.id or "\n" in m.id:
            errors.append(f"message id contains a tab, CR or newline: {m.id!r}")
        try:
            target = "" if m.target_id is None else m.target_id
            for text in (m.id, m.user_id, m.text, target, *m.links, *m.hashtags, *m.mentions):
                text.encode("utf-8")
        except UnicodeEncodeError:
            errors.append(f"message has a string field that is not valid UTF-8: {m.id!r}")
        except AttributeError:
            errors.append(f"message has a text, user, target, link, hashtag or mention "
                          f"that is not a string: {m.id!r}")
        if not isinstance(m.timestamp, int) or m.timestamp < 0:
            bad_timestamps.append(m.id)
    errors += [f"duplicate message id: {mid}" for mid in sorted(dups)]
    errors += [f"invalid timestamp on message: {mid}" for mid in bad_timestamps]
    return errors


def sort_chronologically(messages: list) -> list:
    """Sort by (timestamp, id); id breaks timestamp ties deterministically."""
    return sorted(messages, key=lambda m: (m.timestamp, m.id))


@dataclass(frozen=True)
class SubsetSplit:
    train: tuple  # (start, end) half-open index range over the sorted dataset
    validation: tuple
    test: tuple


@dataclass
class SplitPlan:
    n_messages: int
    n_subsets: int
    subsets: list

    @classmethod
    def from_dict(cls, d: dict) -> "SplitPlan":
        """The plan whose `dataclasses.asdict` is `d`, as JSON gives it back."""
        return cls(d["n_messages"], d["n_subsets"],
                   [SubsetSplit(**{k: tuple(v) for k, v in s.items()}) for s in d["subsets"]])


def chronological_split(messages: list, n_subsets: int, fractions: tuple) -> SplitPlan:
    """Partition the timestamp-sorted dataset into contiguous subsets, each split
    into train / validation / test slices in temporal order.
    """
    if n_subsets < 1:
        raise ConfigError("n_subsets must be >= 1")
    if len(fractions) != 3:
        raise ConfigError("fractions must be (train, validation, test)")
    f_train, f_val, f_test = fractions
    if min(fractions) < 0 or abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be non-negative and sum to 1, got {fractions}")
    n = len(messages)
    if n < n_subsets:
        raise DataError(f"dataset of {n} messages cannot be split into {n_subsets} subsets")

    subsets = []
    for i in range(n_subsets):
        a = (i * n) // n_subsets
        b = ((i + 1) * n) // n_subsets
        size = b - a
        t_end = a + int(size * f_train)
        v_end = a + int(size * (f_train + f_val))
        subsets.append(SubsetSplit(train=(a, t_end), validation=(t_end, v_end), test=(v_end, b)))
    return SplitPlan(n_messages=n, n_subsets=n_subsets, subsets=subsets)


# --- line-delimited ingestion / serialization ---

def _int_field(rec: Mapping, name: str, default):
    value = rec.get(name)
    if value is None:
        return default
    if not is_int(value):
        raise DataError(f"{name!r} must be an integer, got {value!r}")
    return value


def message_from_record(rec: Mapping, fallback_index: int = 0) -> Message:
    """Build a Message from a parsed record; unknown fields are ignored.

    A missing or null timestamp falls back to the record's position in the file,
    so datasets without true time are still processable in a stable order.
    """
    if "id" not in rec:
        raise DataError("the record has no 'id'")
    label = _int_field(rec, "label", None)
    if label not in (HAM, SPAM, None):
        raise DataError(f"label must be 0, 1 or absent, got {label!r}")
    for name in ("links", "hashtags", "mentions"):
        if type(rec.get(name, [])) is not list:
            raise DataError(f"{name!r} must be a list, got {rec[name]!r}")
    if not isinstance(rec.get("target_id"), (str, type(None))):
        raise DataError(f"'target_id' must be a string or null, got {rec['target_id']!r}")
    for name in ("user_id", "text"):
        if type(rec.get(name, "")) is not str:
            raise DataError(f"{name!r} must be a string, got {rec[name]!r}")
    if type(rec.get("is_retweet", False)) is not bool:
        raise DataError(f"'is_retweet' must be true or false, got {rec['is_retweet']!r}")
    return Message(
        id=str(rec["id"]),
        user_id=rec.get("user_id", ""),
        text=rec.get("text", ""),
        timestamp=_int_field(rec, "timestamp", fallback_index),
        target_id=rec.get("target_id"),
        links=list(rec.get("links", [])),
        hashtags=list(rec.get("hashtags", [])),
        mentions=list(rec.get("mentions", [])),
        is_retweet=rec.get("is_retweet", False),
        label=label,
    )


def message_to_record(m: Message) -> dict:
    rec = dict(vars(m))
    if rec["label"] is None:
        del rec["label"]
    if rec["target_id"] is None:
        del rec["target_id"]
    return rec


def read_messages(path) -> list:
    """The messages of a JSONL file, one object per line. A line that is not
    UTF-8, not a JSON object or not a message raises `DataError` naming the
    file and the line."""
    messages = []
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            try:
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                rec = json.loads(text)
                if not isinstance(rec, dict):
                    raise DataError("not a JSON object")
                messages.append(message_from_record(rec, fallback_index=i))
            except (ValueError, TypeError) as exc:  # bad UTF-8 and bad JSON are ValueErrors
                raise DataError(f"{path}, line {i + 1}: {exc}") from None
    return messages


def write_messages(path, messages: Iterable[Message]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for m in messages:
            fh.write(json.dumps(message_to_record(m), sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def read_follows(path) -> list:
    """(follower, followee) pairs of a two-column tab-separated file. A line
    that is not UTF-8 or not two columns raises `DataError` naming the file
    and the line."""
    follows = []
    with open(path, "rb") as fh:
        for i, line in enumerate(fh, 1):
            try:
                parts = line.decode("utf-8").rstrip("\r\n").split("\t")
            except ValueError as exc:  # bad UTF-8
                raise DataError(f"{path}, line {i}: {exc}") from None
            if parts == [""]:
                continue
            if len(parts) != 2:
                raise DataError(f"{path}, line {i}: {len(parts)} tab-separated columns, not 2")
            follows.append(tuple(parts))
    return follows


def write_follows(path, follows: Iterable[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in follows:
            fh.write(f"{a}\t{b}\n")


def labels_of(messages: Iterable[Message]) -> dict:
    """Map id -> gold label for the labeled subset of messages."""
    return {m.id: m.label for m in messages if m.label is not None}
