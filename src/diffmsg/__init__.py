"""diffmsg: generate one-sentence commit messages from version-control diffs.

Pipeline: corpus preprocessing -> verb/direct-object target filter (it
always runs) -> attentional encoder-decoder training -> BLEU evaluation,
with a quality-assurance classifier that gates generation behind a warning.
"""

__version__ = "0.1.0"
