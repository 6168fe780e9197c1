"""Mining and persistence of the parameter example bank."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .document import parse_document
from .errors import CorruptBank, EmptyCorpus, SpecSyntaxError, UnsupportedVersion
from .extract import derive_api_name, extract_parameters
from .model import ApiParameter, ParameterBank, encode_fields, write_atomic

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

    entries: list[ApiParameter] = []
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
            identity = (param.api_name, param.operation_id, param.param_name, param.source_pointer)
            if identity in seen_ids:
                log.warning("duplicate bank entry dropped: %s", identity)
                continue
            seen_ids.add(identity)
            entries.append(param)

    if stats.files_parsed == 0:
        raise EmptyCorpus(f"no parseable spec under {corpus_dir}")
    if not entries:
        log.warning("corpus yielded an empty bank")

    entries.sort(key=lambda p: (p.api_name, p.source_pointer, p.operation_id, p.param_name))
    return ParameterBank(entries=entries, source_digest=digest.hexdigest())


def save_bank(bank: ParameterBank, path: str | Path) -> None:
    """Write UTF-8 line-delimited JSON: a digest header line, then one entry per line.

    An entry line is `{"parameter": ..., "canonical_example": ...}`, the second
    a copy of the parameter's first example that `load_bank` checks.
    """
    lines = [json.dumps({"source_digest": bank.source_digest}, ensure_ascii=False)]
    lines.extend(
        json.dumps(
            {"parameter": param, "canonical_example": param.existing_examples[0]},
            ensure_ascii=False,
            separators=(",", ":"),
            default=encode_fields,
        )
        for param in bank.entries
    )
    write_atomic(path, "\n".join(lines) + "\n")


def _decoded(raw: bytes, line_no: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptBank(line_no, f"not UTF-8: {exc.reason}") from exc


def _parsed(line: str, line_no: int, problem: str) -> Any:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptBank(line_no, f"{problem}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal over the digit limit of `int`
        raise CorruptBank(line_no, f"{problem}: {exc}") from exc
    except RecursionError as exc:
        raise CorruptBank(line_no, f"{problem}: nested too deeply") from exc


def load_bank(path: str | Path) -> ParameterBank:
    """Read a bank file back; any malformed line raises CorruptBank with its line number.

    Lines end at LF only: the writer leaves U+2028, U+2029 and U+0085 unescaped.
    """
    lines = Path(path).read_bytes().split(b"\n")
    if lines == [b""]:
        raise CorruptBank(1, "empty file")

    header = _parsed(_decoded(lines[0], 1), 1, "header is not JSON")
    if not isinstance(header, dict) or not isinstance(header.get("source_digest"), str):
        raise CorruptBank(1, "header must be an object with a source_digest string")

    entries: list[ApiParameter] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = _decoded(raw, line_no)
        if not line.strip():
            continue
        payload = _parsed(line, line_no, "not JSON")
        try:
            param = ApiParameter.from_dict(payload["parameter"])
            canonical = payload["canonical_example"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptBank(line_no, str(exc)) from exc
        if not param.existing_examples:
            raise CorruptBank(line_no, "bank entries require at least one example")
        if canonical != payload["parameter"]["existing_examples"][0]:
            raise CorruptBank(line_no, "canonical_example must be the first listed example")
        entries.append(param)
    return ParameterBank(entries=entries, source_digest=header["source_digest"])
