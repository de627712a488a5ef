"""Checks of the ``reports`` corpus generator against the library.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_corpus.py
"""

import pytest

from friezes import detect_period, interval_certificate, parse_frieze, verify_pattern

from corpus import build_corpus

SEED = 7


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(SEED)


def test_generated_patterns_are_certified_friezes(corpus):
    valid = [d for d in corpus if d.valid]
    assert len(valid) > 900
    for doc in valid:
        f = parse_frieze(doc.text)
        assert verify_pattern(f) == [], doc.dynkin
        assert interval_certificate(f, 4 * f.period).passed, doc.dynkin
        q, _ = detect_period(f.columns[0], f.period)
        assert q == doc.min_period


def test_every_corrupted_copy_is_rejected(corpus):
    bad = [d for d in corpus if not d.valid]
    assert 50 < len(bad) < 150
    for doc in bad:
        assert verify_pattern(parse_frieze(doc.text)), doc.dynkin


def test_same_seed_gives_identical_corpus(corpus):
    again = build_corpus(SEED)
    assert "".join(d.text for d in again).encode() == "".join(d.text for d in corpus).encode()
    assert again == corpus
    assert build_corpus(SEED + 1) != corpus
