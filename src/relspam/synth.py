"""Deterministic synthetic social-network datasets with planted spam campaigns.

Spammers post bursts of near-duplicate messages sharing text templates, links
and hashtags; ham users chat from an overlapping vocabulary and also repeat
common phrases, so both classes form relation groups. Content features are
informative but deliberately imperfect, leaving headroom for the relational
models to close. Everything is driven by one seeded Mersenne Twister stream,
so a config and a seed map to exactly one dataset on every platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from itertools import accumulate

from .data_model import check_setting, is_int, is_number

SHARED_VOCAB_SIZE = 200


@dataclass
class GeneratorConfig:
    n_users: int = 400
    n_messages: int = 20000
    spam_prevalence: float = 0.05
    n_campaigns: int = 40
    campaign_size_jitter: float = 0.3
    text_reuse_prob: float = 0.9
    link_reuse_prob: float = 0.8
    follower_density: float = 4.0  # mean follow actions per ham user
    ham_vocab_size: int = 400
    spam_vocab_size: int = 80
    feature_noise: float = 0.45  # fraction of spam dressed up to look like ham

    def check(self):
        """Raise a `ConfigError` naming the first field of the wrong type or out of range."""
        for f in fields(self):
            value, integral = getattr(self, f.name), f.type == "int"
            check_setting(is_int(value) if integral else is_number(value), f"generator.{f.name}",
                          "an integer" if integral else "a number", value)
        for name in ("spam_prevalence", "text_reuse_prob", "link_reuse_prob", "feature_noise"):
            value = getattr(self, name)
            check_setting(0.0 <= value <= 1.0, f"generator.{name}", "in [0, 1]", value)
        for name, least in (("n_users", 2), ("n_messages", 1), ("n_campaigns", 1)):
            value = getattr(self, name)  # one user is the spammer, so two leave room for ham
            check_setting(value >= least, f"generator.{name}", f"at least {least}", value)
        n_spam = round(self.n_messages * self.spam_prevalence)
        check_setting(self.n_campaigns <= n_spam, "generator.n_campaigns",
                      f"at most the {n_spam} spam messages to plant them in", self.n_campaigns)


def _campaign_sizes(rng: random.Random, n_spam: int, n_campaigns: int, jitter: float) -> list:
    sizes = [n_spam // n_campaigns] * n_campaigns
    for i in range(n_spam - sum(sizes)):
        sizes[i % n_campaigns] += 1
    moves = int(n_spam * jitter * 0.5)
    for _ in range(moves):
        a, b = rng.randrange(n_campaigns), rng.randrange(n_campaigns)
        if sizes[a] > 2:
            sizes[a] -= 1
            sizes[b] += 1
    return sizes


def generate(config: GeneratorConfig, seed: int):
    """-> (message records sorted by timestamp, each a dict of every field
    `MESSAGE_FIELDS` names, follows), drawn from the stream that `seed` starts.
    Labels ride on the messages. The config (`GeneratorConfig.check`) and the
    integer seed arrive checked by the run's config."""
    rng = random.Random(seed)
    n_spam = round(config.n_messages * config.spam_prevalence)
    n_ham = config.n_messages - n_spam

    n_spammers = max(1, min(config.n_campaigns, config.n_users // 5))
    spammers = [f"spammer{i:03d}" for i in range(n_spammers)]
    ham_users = [f"user{i:04d}" for i in range(config.n_users - n_spammers)]

    shared_vocab = [f"w{i}" for i in range(SHARED_VOCAB_SIZE)]
    ham_words = shared_vocab + [f"h{i}" for i in range(config.ham_vocab_size)]
    spam_words = [f"s{i}" for i in range(config.spam_vocab_size)] + shared_vocab

    # ham users repeat common phrases, so ham forms text groups too
    common_phrases = [
        " ".join(rng.choices(ham_words, k=rng.randint(3, 6)))
        for _ in range(max(4, config.n_messages // 50))
    ]
    ham_links = [f"http://site{i}.example/page" for i in range(max(2, config.n_messages // 40))]
    ham_tags = [f"topic{i}" for i in range(12)]
    tracks = [f"track{i:03d}" for i in range(max(2, config.n_messages // 20))]

    horizon = config.n_messages * 10
    drafts = []

    sizes = _campaign_sizes(rng, n_spam, config.n_campaigns, config.campaign_size_jitter)
    for c, size in enumerate(sizes):
        author = spammers[c % n_spammers]
        template = [f"promo{c}"] + rng.choices(spam_words, k=rng.randint(4, 8))
        link = f"http://promo{c}.example/win"
        tag = f"deal{c}" if rng.random() < 0.5 else None
        center = rng.uniform(0.02, 0.98) * horizon
        width = horizon * 0.03
        track = rng.choice(tracks) if rng.random() < 0.5 else None
        for _ in range(size):
            ts = int(min(max(rng.uniform(center - width, center + width), 0), horizon - 1))
            disguised = rng.random() < config.feature_noise
            if rng.random() < config.text_reuse_prob:
                text = " ".join(template)
            else:
                mutated = list(template)
                for _ in range(rng.randint(1, 2)):
                    mutated[rng.randrange(1, len(mutated))] = rng.choice(spam_words)
                text = " ".join(mutated)
            links = [] if disguised else ([link] if rng.random() < config.link_reuse_prob else [])
            hashtags = [tag] if tag and not disguised and rng.random() < 0.4 else []
            mentions = [rng.choice(ham_users)] if rng.random() < 0.1 else []
            drafts.append(dict(user_id=author, text=text, timestamp=ts, links=links,
                               hashtags=hashtags, mentions=mentions, target_id=track,
                               is_retweet=rng.random() < 0.1, label=1))

    # heavy-tailed ham activity: a few prolific users post bursts of their own,
    # so raw message counts alone do not separate the classes
    # cumulative once: `choices` with `weights` would re-accumulate them per draw
    ham_cum = list(accumulate(1.0 / (i + 1) ** 0.7 for i in range(len(ham_users))))
    for _ in range(n_ham):
        user = rng.choices(ham_users, cum_weights=ham_cum, k=1)[0]
        if rng.random() < 0.2:
            text = rng.choice(common_phrases)
        else:
            text = " ".join(rng.choices(ham_words, k=rng.randint(4, 9)))
        links = [rng.choice(ham_links)] if rng.random() < 0.15 else []
        hashtags = [rng.choice(ham_tags)] if rng.random() < 0.12 else []
        mentions = [rng.choice(ham_users)] if rng.random() < 0.1 else []
        drafts.append(dict(user_id=user, text=text, timestamp=int(rng.uniform(0, horizon)),
                           links=links, hashtags=hashtags, mentions=mentions,
                           target_id=rng.choice(tracks) if rng.random() < 0.4 else None,
                           is_retweet=rng.random() < 0.08, label=0))

    drafts.sort(key=lambda d: (d["timestamp"], d["user_id"], d["text"]))
    messages = [{"id": f"m{i:06d}", **d} for i, d in enumerate(drafts)]

    # spammers are sparsely connected; ham users follow each other freely
    follows = []
    seen = set()
    for user in ham_users:
        for _ in range(max(0, int(rng.gauss(config.follower_density, 1.0)))):
            other = rng.choice(ham_users)
            if other != user and (user, other) not in seen:
                seen.add((user, other))
                follows.append((user, other))
    for user in spammers:
        for _ in range(max(0, int(config.follower_density * 0.5))):
            other = rng.choice(ham_users)
            if (user, other) not in seen:
                seen.add((user, other))
                follows.append((user, other))
        if rng.random() < 0.4:  # a few spammers trick users into following back
            follower = rng.choice(ham_users)
            if (follower, user) not in seen:
                seen.add((follower, user))
                follows.append((follower, user))
    return messages, follows
