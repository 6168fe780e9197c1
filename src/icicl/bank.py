"""Mining and persistence of the parameter example bank."""

from __future__ import annotations

import hashlib
import logging
import mmap
import os
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, islice, repeat
from operator import add, attrgetter
from pathlib import Path
from typing import Any

from .document import parse_document
from .errors import CorruptBank, EmptyCorpus, SpecSyntaxError, UnsupportedVersion
from .extract import derive_api_name, extract_parameters
from .model import (
    BLANK_LINE,
    ApiParameter,
    ExampleValue,
    ParameterBank,
    SchemaType,
    decode_fields,
    identity_order,
    json_line,
    json_text,
    read_json_line,
    write_atomic,
)
from .retrieval import Postings, RetrievalIndex, index_arrays, postings_lists

log = logging.getLogger(__name__)

DEFAULT_INCLUDE = ("*.json", "*.yaml", "*.yml")


@dataclass
class MiningStats:
    files_parsed: int = 0
    files_skipped: int = 0
    parameters_seen: int = 0
    parameters_with_examples: int = 0


def check_include(pattern: str) -> None:
    """Raise ValueError unless `pattern` is a glob relative to the corpus that stays inside it."""
    if Path(pattern).is_absolute():  # Path.rglob takes only relative patterns
        raise ValueError(f"{pattern!r} is absolute; give a glob relative to CORPUS_DIR")
    if ".." in Path(pattern).parts:
        raise ValueError(f"{pattern!r} has a '..' part; give a glob that stays inside CORPUS_DIR")


def matched_files(corpus_dir: Path, include_filter: tuple[str, ...]) -> list[Path]:
    """The files under `corpus_dir` that an include pattern matches, which `mine_bank` reads in this order."""
    found: set[Path] = set()
    for pattern in include_filter:
        found.update(p for p in corpus_dir.rglob(pattern) if p.is_file())
    return sorted(found, key=lambda p: p.relative_to(corpus_dir).as_posix())


# the order of a mined bank's entries; equal keys are one identity, which the bank holds once
_entry_order = attrgetter("api_name", "source_pointer", "operation_id", "param_name")


def mine_bank(
    corpus_dir: str | Path,
    include_filter: tuple[str, ...] = DEFAULT_INCLUDE,
    stats: MiningStats | None = None,
) -> ParameterBank:
    """Scan a spec corpus and keep every parameter that carries an example.

    Unparseable or unsupported files are skipped with a warning; a corpus with
    no parseable spec at all raises EmptyCorpus, and an include pattern that
    `check_include` refuses raises ValueError before any file is read. The
    result is a pure function of corpus content: entries are ordered by
    (api_name, source_pointer) and the digest hashes the parsed files. Of the
    entries sharing an (api_name, operation_id, param_name, source_pointer),
    the first mined is kept; the others are dropped after it, each with a
    warning, and still count in `parameters_with_examples`.

    The entries are held by api_name, in the order mined, and each api_name's
    entries are sorted on their own, in api_name order: the order of one
    stable sort of them all, with sort keys for one api_name at a time.
    """
    for pattern in include_filter:
        check_include(pattern)
    corpus_dir = Path(corpus_dir)
    if stats is None:
        stats = MiningStats()

    by_api: dict[str, list[ApiParameter]] = {}
    digest = hashlib.sha256()

    for path in matched_files(corpus_dir, include_filter):
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
        # every parameter of a file carries the file's api_name
        by_api.setdefault(api_name, []).extend(param for param in params if param.existing_examples)

    with_examples = sum(map(len, by_api.values()))
    stats.parameters_with_examples += with_examples
    if stats.files_parsed == 0:
        raise EmptyCorpus(f"no parseable spec under {corpus_dir}")
    if not with_examples:
        log.warning("corpus yielded an empty bank")

    kept: list[ApiParameter] = []
    for api_name in sorted(by_api):
        entries = by_api.pop(api_name)
        entries.sort(key=_entry_order)  # stable: of equal keys, the first mined stays first
        for _, same in groupby(entries, key=_entry_order):
            kept.append(next(same))
            for dropped in same:
                identity = (dropped.api_name, dropped.operation_id, dropped.param_name, dropped.source_pointer)
                log.warning("duplicate bank entry dropped: %s", identity)
    return ParameterBank(entries=kept, source_digest=digest.hexdigest())


# Bump whenever the index file's layout, tokenize, retrieval_text or the
# entry checks change: a bank its index vouches for is parsed only as entries
# are read, so a check that got stricter would otherwise fail mid-run.
INDEX_VERSION = 4
BANK_FORMAT = 2  # the header's `format`; `load_bank` refuses any other
# bytes of the bank file per piece of its `bank_digest`; a multiple of the page
# size, and part of the index format, so changing it bumps INDEX_VERSION
BANK_PIECE = 1 << 20
_CHECKSUM_BYTES = 32  # the SHA-256 that ends an index file
_HASH_THREADS = 4  # the most threads loading hashes a bank's pieces on


def index_path(path: str | Path) -> Path:
    """The index file `save_bank` writes beside the bank at `path`."""
    path = Path(path)
    return path.with_name(path.name + ".index")


def save_bank(bank: ParameterBank, path: str | Path) -> None:
    """Write the bank as UTF-8 line-delimited JSON, and its index beside it.

    The bank file is a header line, `{"format": 2, "source_digest": ...}`,
    then one line per entry, the parameter itself. Lines are written as they
    are encoded. An entry without an example, which `load_bank` refuses,
    raises ValueError before anything is written; a number that is not finite,
    which it also refuses, no `ExampleValue` can hold. Then `index_path(path)`
    gets the retrieval index, the identity hashes and the entry lines'
    lengths, tied to the bank file by its `bank_digest`, computed over the
    bytes as they are written.
    """
    for idx, param in enumerate(bank.entries):
        if not param.existing_examples:
            raise ValueError(f"bank entry {idx} has no example")

    digest = _PieceDigest()
    line_lengths = array("I")
    write_atomic(path, _bank_lines(bank, digest, line_lengths))
    write_atomic(index_path(path), _index_file(bank, digest.hexdigest(), line_lengths))


def _joined(piece_sha256s: Iterable[bytes]) -> str:
    """The `bank_digest` of a file whose pieces have these SHA-256s, in order."""
    return hashlib.sha256(b"".join(piece_sha256s)).hexdigest()


class _PieceDigest:
    """The `bank_digest` of bytes fed in order, in chunks of any size."""

    def __init__(self) -> None:
        self._piece_sha256s: list[bytes] = []
        self._piece = hashlib.sha256()
        self._room = BANK_PIECE  # bytes the current piece still takes

    def update(self, data: bytes) -> None:
        while len(data) >= self._room:
            self._piece.update(data[: self._room])
            data = data[self._room :]
            self._piece_sha256s.append(self._piece.digest())
            self._piece, self._room = hashlib.sha256(), BANK_PIECE
        self._piece.update(data)
        self._room -= len(data)

    def hexdigest(self) -> str:
        last = [self._piece.digest()] if self._room < BANK_PIECE else []  # there is no empty piece
        return _joined(self._piece_sha256s + last)


_LINES_PER_CHUNK = 64  # entry lines `_bank_lines` joins into one chunk


def _entry_line(param: ApiParameter, type_json: dict[SchemaType, str]) -> bytes:
    """`json_line(param)`, joined from the JSON of each field in declaration
    order. `type_json` holds the JSON of each declared type met so far, and
    gains this entry's on its first meeting. A field value of a type not
    written here, or a declared type that cannot be hashed or encoded, goes
    through `json_line` itself, which raises what it raises.
    """
    try:
        declared, examples = param.declared_type, param.existing_examples
        if not (
            type(param) is ApiParameter
            and type(declared) is SchemaType
            and type(param.required) is bool
            and type(examples) is tuple
        ):
            raise TypeError
        declared_json = type_json.get(declared)
        if declared_json is None:
            # two lists deep, as deep as in the entry's own line: too deep exactly where it is
            declared_json = type_json[declared] = json_line([[declared]])[2:-3].decode()
        examples_json = [
            f'{{"raw_text":{json_text(example.raw_text)},"parsed_kind":{json_text(example.parsed_kind)}}}'
            for example in examples
            if type(example) is ExampleValue
        ]
        if len(examples_json) < len(examples):
            raise TypeError
        line = (
            f'{{"api_name":{json_text(param.api_name)},"operation_id":{json_text(param.operation_id)},'
            f'"param_name":{json_text(param.param_name)},"description":{json_text(param.description)},'
            f'"location":{json_text(param.location)},"required":{"true" if param.required else "false"},'
            f'"declared_type":{declared_json},"existing_examples":[{",".join(examples_json)}],'
            f'"source_pointer":{json_text(param.source_pointer)}}}\n'
        )
        return line.encode("utf-8")
    except (TypeError, ValueError, RecursionError):  # a value of another type, too deep, or not UTF-8
        pass
    return json_line(param)


def _bank_lines(bank: ParameterBank, digest: _PieceDigest, line_lengths: array) -> Iterator[bytes]:
    """The bank file in chunks of whole lines, each added to `digest` as it is
    yielded and each entry line's length, LF included, to `line_lengths`.
    """
    header = json_line({"format": BANK_FORMAT, "source_digest": bank.source_digest})
    digest.update(header)
    yield header
    type_json: dict[SchemaType, str] = {}  # for this save only, so it keeps no type alive after it
    lines = map(_entry_line, bank.entries, repeat(type_json))
    while chunk := list(islice(lines, _LINES_PER_CHUNK)):
        line_lengths.extend(map(len, chunk))
        data = b"".join(chunk)
        digest.update(data)
        yield data


def _u32(words: array) -> bytes:
    """The `array("I")` as unsigned 32-bit little-endian words."""
    if sys.byteorder == "big":
        words = array("I", words)
        words.byteswap()
    return words.tobytes()


def _index_file(bank: ParameterBank, bank_digest: str, line_lengths: array) -> Iterator[bytes]:
    """The index file, written after the bank file whose `bank_digest` it carries.

    Two JSON lines: a header and the sorted terms. Then unsigned 32-bit
    little-endian words, per entry: each entry line's byte length with its LF,
    each entry's token count, the sorted identity hashes and the entry of each
    (`identity_order` of the entries written, not a cached `bank.identities`);
    per term: its count of entries holding it once and its count of entries
    repeating it; and per term those entries followed by its (entry, tf)
    pairs. Last, the SHA-256 of everything before it.
    """
    doc_lengths, postings = index_arrays(bank.entries)
    terms = sorted(postings)  # built in set order, which varies with the hash seed
    plists = [postings[term] for term in terms]
    header = {
        "version": INDEX_VERSION,
        "bank_digest": bank_digest,
        "entries": len(doc_lengths),
    }
    counts = (
        line_lengths,
        doc_lengths,
        *identity_order(bank.entries),
        array("I", [len(once) for once, _ in plists]),
        array("I", [len(pairs) // 2 for _, pairs in plists]),
    )
    parts = chain(map(json_line, (header, terms)), map(_u32, counts), map(_u32, chain.from_iterable(plists)))
    checksum = hashlib.sha256()
    for part in parts:
        checksum.update(part)
        yield part
    yield checksum.digest()


def _line(raw: bytes, line_no: int) -> Any:
    try:
        return read_json_line(raw)
    except ValueError as exc:
        raise CorruptBank(line_no, str(exc)) from exc


def _entry(payload: Any, line_no: int) -> ApiParameter:
    """The `decode_fields` entry of a decoded line, which must hold an example, or CorruptBank naming why not."""
    try:
        param = decode_fields(ApiParameter, payload)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CorruptBank(line_no, str(exc)) from exc
    if not param.existing_examples:
        raise CorruptBank(line_no, "bank entries require at least one example")
    return param


class _LazyEntries(Sequence[ApiParameter]):
    """The entries of a bank file, each parsed and checked on first read.

    `data` is the file's read-only mapping, or its bytes when it could not be
    mapped; a slice of either is bytes. Entry i is the line from `starts[i]`
    up to the LF that ends before `starts[i + 1]`, at line number i + 2. An
    entry the file no longer reaches, because it was truncated after loading,
    raises CorruptBank when first read.
    Threads may read concurrently: two first reads of one entry parse it
    twice and keep either of two equal values.
    """

    def __init__(self, data: mmap.mmap | bytes, starts: Sequence[int]):
        self._data = data
        self._size = getattr(data, "size", data.__len__)  # a mapping's size() is its file's size now
        self._starts = starts
        self._parsed: list[ApiParameter | None] = [None] * (len(starts) - 1)

    def __len__(self) -> int:
        return len(self._parsed)

    def __getitem__(self, i: int | slice) -> Any:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        param = self._parsed[i]  # raises the IndexError that ends iteration
        if param is None:
            i %= len(self._parsed)
            start, end = self._starts[i], self._starts[i + 1]
            # reading a mapped page past the file's end would kill the process (SIGBUS)
            if (size := self._size()) < end:
                raise CorruptBank(i + 2, f"the bank file now ends at byte {size}: it was truncated after loading")
            param = self._parsed[i] = _entry(_line(self._data[start : end - 1], i + 2), i + 2)
        return param


class _LazyPostings(Mapping[str, Postings]):
    """The postings in an index file's words, each term's lists built and
    checked on first read.

    Term t's words start at `starts[ordinal of t]`: the entries holding it
    once, then its (entry, tf) pairs. An entry past the bank's end raises
    CorruptBank. Threads may read concurrently, as `_LazyEntries` may.
    """

    def __init__(
        self, path: Path, entry_count: int, words: array, terms: list[str], starts: Sequence[int], once_counts: array
    ):
        self._path = path
        self._entry_count = entry_count
        self._words = words
        self._ordinals = dict(zip(terms, range(len(terms))))
        self._starts = starts
        self._once_counts = once_counts
        self._read: dict[str, Postings] = {}

    def __len__(self) -> int:
        return len(self._ordinals)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ordinals)

    def __getitem__(self, term: str) -> Postings:
        plist = self._read.get(term)
        if plist is None:
            ordinal = self._ordinals[term]  # the KeyError of a term no entry holds
            start, stop = self._starts[ordinal], self._starts[ordinal + 1]
            once = self._words[start : start + self._once_counts[ordinal]]
            pairs = self._words[start + len(once) : stop]
            if max(once, default=-1) >= self._entry_count or max(pairs[::2], default=-1) >= self._entry_count:
                raise CorruptBank(
                    None,
                    f"{self._path} lists term {term!r} in an entry past the bank's {self._entry_count}; "
                    f"deleting {self._path} is safe, the bank then loads by parsing every line",
                )
            plist = self._read[term] = postings_lists(once, pairs)
        return plist


def _read_mapped(path: Path) -> mmap.mmap | bytes:
    """The file mapped read-only, or its bytes when it cannot be mapped (an empty file, a pipe)."""
    with path.open("rb") as fh:
        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return fh.read()


def _piece_sha256(data: mmap.mmap | bytes, start: int) -> bytes:
    """The SHA-256 of the `BANK_PIECE` bytes of `data` from `start`, fewer at
    its end. A mapping's pages of them are released once hashed
    (MADV_DONTNEED), so hashing does not leave the whole file resident; a later
    read faults a page back in from the page cache.
    """
    with memoryview(data) as view:
        piece_sha256 = hashlib.sha256(view[start : start + BANK_PIECE]).digest()
    if not isinstance(data, bytes) and hasattr(mmap, "MADV_DONTNEED"):
        data.madvise(mmap.MADV_DONTNEED, start, BANK_PIECE)  # the last piece's length is clipped to the end
    return piece_sha256


def bank_digest(data: mmap.mmap | bytes) -> str:
    """The SHA-256 of the SHA-256s of the consecutive `BANK_PIECE`-byte pieces
    of `data`, the last one possibly shorter, hashed on this thread.
    """
    return _joined(_piece_sha256(data, start) for start in range(0, len(data), BANK_PIECE))


def _sealed(raw: mmap.mmap | bytes) -> bool:
    """Whether the index file `raw` ends in the SHA-256 of everything before it."""
    size = len(raw) - _CHECKSUM_BYTES
    with memoryview(raw) as view:
        return size >= 0 and hashlib.sha256(view[:size]).digest() == view[size:]


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _hashed(raw: mmap.mmap | bytes, data: mmap.mmap | bytes) -> tuple[bool, str]:
    """Whether the index file `raw` ends in the SHA-256 of everything before
    it, and the `bank_digest` of the bank `data`.

    Both are hashed on up to `_HASH_THREADS` threads, no more than there are
    pieces or CPUs this process may run on; hashlib lets go of the interpreter
    lock while it hashes. A bank of one piece, or a process on one CPU, is
    hashed on this thread, and no thread is started. A worker's exception
    reaches the caller, and no thread is left on return.
    """
    starts = range(0, len(data), BANK_PIECE)
    workers = min(_HASH_THREADS, len(starts), _usable_cpus())
    if workers < 2:
        return _sealed(raw), bank_digest(data)
    with ThreadPoolExecutor(workers, thread_name_prefix="bank-hash") as pool:
        sealed = pool.submit(_sealed, raw)
        digest = _joined(pool.map(_piece_sha256, repeat(data), starts))
        return sealed.result(), digest


def _indexed(path: str | Path, data: mmap.mmap | bytes, source_digest: str) -> ParameterBank | None:
    """The bank in `data` read through its index file, or None when that file
    is missing, damaged or malformed, of another version, or written for other
    bank bytes.

    The index file's checksum and the bank's `bank_digest` are both hashed
    (`_hashed`) before any word of the index file is read. Every version of
    the file starts with a JSON header line holding `version`; one of another
    version is ignored with a warning, and a file that is not one fails some
    check below. The index file is mapped only until its words are copied
    out; the bank's entries are sliced from `data`, so a mapped bank stays
    mapped while the bank is used, but hashing releases its pages piece by
    piece, so only the pages of the entries read stay resident. Nothing is
    built per entry or per term here: entries and postings are read when
    first used.
    """
    path = index_path(path)
    try:
        raw = _read_mapped(path)
    except OSError:
        return None
    try:
        sealed, digest = _hashed(raw, data)
        if not sealed:
            return None
        try:
            size = len(raw) - _CHECKSUM_BYTES
            header_end = raw.find(b"\n", 0, size)
            terms_end = raw.find(b"\n", header_end + 1, size)  # also -1 when header_end is
            if terms_end < 0:
                return None
            header = read_json_line(raw[:header_end])
            terms = read_json_line(raw[header_end + 1 : terms_end])
            words = array("I")
            words.frombytes(memoryview(raw)[terms_end + 1 : size])
        except ValueError:
            return None
    finally:
        if not isinstance(raw, bytes):
            raw.close()  # the words are copied out
    if isinstance(header, dict) and header.get("version") != INDEX_VERSION:
        log.warning(
            "ignoring %s: its version %r is not %d; run `icicl mine` again to rewrite it, "
            "until then each load parses every line of the bank",
            path,
            header.get("version"),
            INDEX_VERSION,
        )
        return None
    if not (
        isinstance(header, dict)
        and header.get("bank_digest") == digest
        and isinstance(header.get("entries"), int)
        and 0 <= header["entries"] <= len(data)  # an entry line takes at least its LF
        and isinstance(terms, list)
        and all(isinstance(term, str) for term in terms)
    ):
        return None
    if sys.byteorder == "big":
        words.byteswap()
    count, vocab = header["entries"], len(terms)
    ends = list(accumulate((count, count, count, count, vocab, vocab)))
    line_lengths, doc_lengths, hashes, order, once_counts, repeat_counts = (
        words[start:end] for start, end in zip([0, *ends], ends)
    )
    term_words = map(add, once_counts, map(add, repeat_counts, repeat_counts))
    term_starts = array("Q", accumulate(term_words, initial=ends[-1]))
    line_starts = array("Q", accumulate(line_lengths, initial=data.find(b"\n") + 1))
    # the postings fill the words, the lines tile the bank after its header
    # line, and the identity words name entries
    if term_starts[-1] != len(words) or line_starts[-1] != len(data) or max(order, default=-1) >= count:
        return None
    bank = ParameterBank(
        entries=_LazyEntries(data, line_starts),
        source_digest=source_digest,
        index=RetrievalIndex(doc_lengths.tolist(), _LazyPostings(path, count, words, terms, term_starts, once_counts)),
    )
    bank.identities = (hashes, order)
    return bank


def load_bank(path: str | Path) -> ParameterBank:
    """Read a bank file back; any malformed line raises CorruptBank with its line number.

    The file is JSON lines, as `model.json_line` writes them; a header of
    another `format` is refused, index or no index. When the index file
    beside the bank matches it, the bank comes with that index and its
    identity hashes, and each entry is parsed and checked when first read;
    otherwise every line is parsed and checked here.

    The bank file is mapped read-only, and an indexed bank reads its entries
    from that mapping, so replace a bank in use (as `save_bank` does), never
    rewrite it in place; an entry that a file truncated after loading no
    longer reaches raises CorruptBank when first read. A file that cannot be
    mapped is read into memory.
    """
    data = _read_mapped(Path(path))
    if not data:
        raise CorruptBank(1, "empty file")
    end = data.find(b"\n")
    header = _line(data[: len(data) if end == -1 else end], 1)
    if not isinstance(header, dict) or not isinstance(header.get("source_digest"), str):
        raise CorruptBank(1, "header must be an object with a source_digest string")
    if (bank_format := header.get("format", 1)) != BANK_FORMAT:
        raise CorruptBank(1, f"bank format {bank_format!r} is not {BANK_FORMAT}; run `icicl mine` again")

    indexed = _indexed(path, data, header["source_digest"])
    if indexed is not None:
        return indexed
    data = data[:]  # bytes to split; a mapping is unmapped once nothing holds it
    entries: list[ApiParameter] = []
    for line_no, raw in enumerate(data.split(b"\n")[1:], start=2):
        payload = _line(raw, line_no)
        if payload is not BLANK_LINE:
            entries.append(_entry(payload, line_no))
    return ParameterBank(entries=entries, source_digest=header["source_digest"])
