#!/usr/bin/env python3
"""Count the common API words and the touched share of the fixture corpus.

gen.FIXTURE_WORDS takes its rates from this count. Run from the repository
root; it only reads tests/fixtures/corpus:

    python3 bench/fixture_words.py

For every parameter the fixture specs declare, it counts which words sit in
the first 50 characters of the description, which verb starts the operation
id and which suffix ends the name, as shares of all parameters. It then
indexes all those parameters against each other (BM25 needs only the text)
and prints the median share of the others that each one's query touches.
"""

from __future__ import annotations

import logging
import statistics
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import gen  # noqa: E402
from icicl.document import parse_document  # noqa: E402
from icicl.errors import SpecSyntaxError, UnsupportedVersion  # noqa: E402
from icicl.extract import derive_api_name, extract_parameters  # noqa: E402
from icicl.retrieval import DESCRIPTION_PREFIX_CHARS, build_index, build_query, score_all, tokenize  # noqa: E402

CORPUS = ROOT / "tests" / "fixtures" / "corpus"


def fixture_parameters() -> list:
    params = []
    for path in sorted(CORPUS.iterdir()):
        try:
            doc = parse_document(path.read_bytes())
            params += extract_parameters(doc, api_name=derive_api_name(doc, fallback=path.stem))
        except (SpecSyntaxError, UnsupportedVersion):
            continue  # the corpus also holds files the miner must skip
    return params


def main() -> int:
    logging.disable(logging.WARNING)
    params = fixture_parameters()
    n = len(params)
    words = Counter(w for p in params for w in set(tokenize(p.description[:DESCRIPTION_PREFIX_CHARS])))
    verbs = Counter(tokenize(p.operation_id)[0] for p in params)
    suffixes = Counter(tokenize(p.param_name)[-1] for p in params)
    profile = gen.FIXTURE_WORDS
    print(f"{n} parameters in {len({p.api_name for p in params})} specs")
    for label, counts, table in (
        ("description word", words, profile.description_words),
        ("operation verb", verbs, profile.operation_verbs),
        ("name suffix", suffixes, profile.name_suffixes),
    ):
        for word, share in table:
            print(f"{label:<17} {word:<8} fixture {counts[word] / n:.3f}  FIXTURE_WORDS {share:.3f}")

    index = build_index(SimpleNamespace(entries=[SimpleNamespace(parameter=p) for p in params]))
    shares = []
    for p in params:
        touched = sum(1 for c in score_all(index, build_query(p)) if c.score > 0)
        shares.append((touched - 1) / (n - 1))  # a parameter always touches itself
    print(f"touched share: median {statistics.median(shares):.3f}, "
          f"quartiles {', '.join(f'{q:.3f}' for q in statistics.quantiles(shares, n=4))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
