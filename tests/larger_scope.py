"""The small-scope checks at their larger bounds, which cost more than the
Tier-1 run's time allows. The file's name does not match test_*.py, so a
plain pytest run does not collect it; a run that names it does, as CI's
larger-bound step does:

    PYTHONPATH=src python -m pytest -q tests/larger_scope.py
"""

from test_protocol import decoder_small_scope


def test_every_stream_of_four_tokens_decodes_alike_at_every_split():
    """The decoder check at 4 tokens: 1 + 7 + 6 * 7 + 6**2 * 7 + 6**3 * 7 streams."""
    assert decoder_small_scope(4) == 1814
