"""Mining and persistence of the parameter example bank."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .document import parse_document
from .errors import CorruptBank, EmptyCorpus, SpecSyntaxError, UnsupportedVersion
from .extract import derive_api_name, extract_parameters
from .model import BankEntry, ParameterBank, write_atomic

log = logging.getLogger(__name__)

DEFAULT_INCLUDE = ("*.json", "*.yaml", "*.yml")


@dataclass
class MiningStats:
    files_parsed: int = 0
    files_skipped: int = 0
    parameters_seen: int = 0
    parameters_with_examples: int = 0


def _matched_files(corpus_dir: Path, include_filter: tuple[str, ...]) -> list[Path]:
    found: set[Path] = set()
    for pattern in include_filter:
        found.update(p for p in corpus_dir.rglob(pattern) if p.is_file())
    return sorted(found, key=lambda p: p.relative_to(corpus_dir).as_posix())


def mine_bank(
    corpus_dir: str | Path,
    include_filter: tuple[str, ...] = DEFAULT_INCLUDE,
    stats: MiningStats | None = None,
) -> ParameterBank:
    """Scan a spec corpus and keep every parameter that carries an example.

    Unparseable or unsupported files are skipped with a warning; a corpus with
    no parseable spec at all raises EmptyCorpus. The result is a pure function
    of corpus content: entries are ordered by (api_name, source_pointer) and
    the digest hashes the parsed files.
    """
    corpus_dir = Path(corpus_dir)
    if stats is None:
        stats = MiningStats()

    entries: list[BankEntry] = []
    seen_ids: set[tuple[str, str, str, str]] = set()
    digest = hashlib.sha256()

    for path in _matched_files(corpus_dir, include_filter):
        data = path.read_bytes()
        try:
            doc = parse_document(data)
            api_name = derive_api_name(doc, fallback=path.stem)
            params = extract_parameters(doc, api_name=api_name)
        except (SpecSyntaxError, UnsupportedVersion) as exc:
            log.warning("skipping %s: %s", path.name, exc)
            stats.files_skipped += 1
            continue
        stats.files_parsed += 1
        rel = path.relative_to(corpus_dir).as_posix()
        digest.update(rel.encode("utf-8") + b"\0" + hashlib.sha256(data).digest())

        stats.parameters_seen += len(params)
        for param in params:
            if not param.existing_examples:
                continue
            stats.parameters_with_examples += 1
            entry = BankEntry(parameter=param, canonical_example=param.existing_examples[0])
            if entry.identity() in seen_ids:
                log.warning("duplicate bank entry dropped: %s", entry.identity())
                continue
            seen_ids.add(entry.identity())
            entries.append(entry)

    if stats.files_parsed == 0:
        raise EmptyCorpus(f"no parseable spec under {corpus_dir}")
    if not entries:
        log.warning("corpus yielded an empty bank")

    entries.sort(
        key=lambda e: (
            e.parameter.api_name,
            e.parameter.source_pointer,
            e.parameter.operation_id,
            e.parameter.param_name,
        )
    )
    return ParameterBank(entries=entries, source_digest=digest.hexdigest())


def save_bank(bank: ParameterBank, path: str | Path) -> None:
    """Write UTF-8 line-delimited JSON: a digest header line, then one entry per line."""
    lines = [json.dumps({"source_digest": bank.source_digest}, ensure_ascii=False)]
    lines.extend(
        json.dumps(entry.to_dict(), ensure_ascii=False, separators=(",", ":")) for entry in bank.entries
    )
    write_atomic(path, "\n".join(lines) + "\n")


def load_bank(path: str | Path) -> ParameterBank:
    """Read a bank file back; any malformed line raises CorruptBank with its line number."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise CorruptBank(1, "empty file")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CorruptBank(1, f"header is not JSON: {exc.msg}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("source_digest"), str):
        raise CorruptBank(1, "header must be an object with a source_digest string")

    entries: list[BankEntry] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptBank(line_no, f"not JSON: {exc.msg}") from exc
        try:
            entries.append(BankEntry.from_dict(payload))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptBank(line_no, str(exc)) from exc
    return ParameterBank(entries=entries, source_digest=header["source_digest"])
