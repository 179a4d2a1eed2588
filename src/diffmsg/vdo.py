"""Verb/direct-object filter for commit message subjects.

Subjects that open with a verb and name an object shortly after ("adds
support for 9 inch tablet screens") make good training targets; version
noise, merge banners, and bare nouns do not.  A full dependency parser is
out of proportion here, so verbs come from a fixed lexicon with inflection
rules, and the direct object is approximated by the first plain token in a
short lookahead window.  The heuristic favors precision: tokens that could
themselves be verbs never count as objects.
"""

from __future__ import annotations

from .corpus import PUNCTUATION, PreparedCommit, TokenSequence

# Inflection rules tried in order; the first rule whose stem is a known
# base verb wins ("applies"->"apply", "fixes"->"fix", "removed"->"remove").
SUFFIX_RULES: tuple[tuple[str, str], ...] = (
    ("ies", "y"),
    ("es", ""),
    ("s", ""),
    ("ed", ""),
    ("ed", "e"),
    ("ing", ""),
    ("ing", "e"),
)

# How many non-skip tokens after the verb may hold the direct object.
OBJECT_WINDOW = 4

# Determiners and prepositions stepped over while looking for the object.
SKIP_WORDS = frozenset({"a", "an", "the", "some", "for", "to", "of", "in", "on", "with"})

# Common commit-subject verbs, lowercase, as verb_stem looks them up.
# "merge" and "revert" are deliberately absent: those commits are dropped
# upstream, and keeping them out here guards against pipeline reordering.
DEFAULT_VERBS = frozenset(
    """
    add address adjust align allow annotate append apply assert attach avoid
    backport bind break build bump bundle cache catch change check clamp
    clarify clean close combine complete compress concatenate configure
    consolidate convert copy correct count create customize debug declare
    decode decompress decouple deduplicate defer define delay delegate delete
    deploy deprecate deserialize detach disable display document downgrade
    draw drop embed enable encode enforce ensure escape exclude expose extend
    extract fetch filter finish fix flip flush format forward free freeze
    generalize group guard handle harden hide ignore implement improve
    include inject inline insert introduce isolate join limit link load lock
    log make mark measure migrate mock modularize move normalize open
    optimize override pack pad parameterize parse patch pause pin polish pop
    port postpone precompute prepend prevent print promote prune publish
    purge push reconnect redirect reduce refactor refine register relax
    remove rename render reorder reorganize repair replace report rearrange
    reset resize resolve restart restore restructure resume retry return
    reuse rework reword rewrite save schedule separate serialize set ship
    shorten show silence simplify skip sort specify speed split stabilize
    start stop store strip stub support suppress swap switch sync synchronize
    tag test throw tighten toggle track trace translate trim truncate tweak
    unbind unfreeze unify unlink unload unlock unpack unpin unregister unset
    unwrap update upgrade use validate verify warn wrap
    """.split()
)


def default_lexicon() -> frozenset[str]:
    """The base verb stems is_vdo matches, all lowercase: DEFAULT_VERBS."""
    return DEFAULT_VERBS


def verb_stem(token: str, lexicon: frozenset[str]) -> str | None:
    """Return the base verb for a token, or None if it is not a verb."""
    word = token.lower()
    if word in lexicon:
        return word
    for suffix, replacement in SUFFIX_RULES:
        if word.endswith(suffix) and len(word) > len(suffix):
            stem = word[: -len(suffix)] + replacement
            if stem in lexicon:
                return stem
    return None


def is_vdo(message: TokenSequence, lexicon: frozenset[str]) -> bool:
    """True if the message opens with a verb followed by a direct object.

    The object search steps over SKIP_WORDS (which do not consume window
    slots) and accepts the first of the next OBJECT_WINDOW tokens that is
    neither punctuation nor itself a verb.
    """
    if not message or verb_stem(message[0], lexicon) is None:
        return False
    window = [t for t in message[1:] if t.lower() not in SKIP_WORDS][:OBJECT_WINDOW]
    return any(t not in PUNCTUATION and verb_stem(t, lexicon) is None for t in window)


def filter_corpus(items: list[PreparedCommit]) -> list[PreparedCommit]:
    """Keep exactly the commits whose target message satisfies is_vdo over
    DEFAULT_VERBS, in order."""
    return [item for item in items if is_vdo(item.target, DEFAULT_VERBS)]
