"""The index file `save_bank` writes beside a bank.

A bank read through its index equals one rebuilt from its entries; an index
that is missing, damaged or malformed, of another version or stale is
ignored, and the bank loads by parsing every line as before.
"""

import dataclasses
import hashlib
import json
import mmap
import os
import shutil
import struct
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icicl.bank as bank_module
from icicl.bank import INDEX_VERSION, index_path, load_bank, mine_bank, save_bank
from icicl.errors import CorruptBank
from icicl.model import ParameterBank, identity_hash, json_line
from icicl.retrieval import build_index, build_query, exclude_self, score_all

from support import EXAMPLE_VALUES, make_param, parameters, write_format_1_bank

WORDS = ["currency", "code", "ISO", "4217", "userId", "getUserByUsername", "v2Currency", "é", "日本", "country"]
PHRASES = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
# few identities, so that banks repeat them
IDENTITIES = st.tuples(st.sampled_from(["rates", "ünï"]), st.sampled_from(["/p", "/q", "/p/0"]))
ENTRIES = st.builds(
    lambda identity, name, description, operation_id: make_param(
        api_name=identity[0],
        source_pointer=identity[1],
        param_name=name,
        description=description,
        operation_id=operation_id,
        examples=("USD",),
    ),
    IDENTITIES,
    st.sampled_from(WORDS),
    PHRASES,
    PHRASES,
)


def ranked(ranking):
    """Every (entry, score) of a ranking, the zero-score tail included, scores bit for bit."""
    return [(c.entry_index, c.score.hex()) for c in ranking]


def saved(tmp_path, entries, digest="d" * 64):
    path = tmp_path / "bank.jsonl"
    save_bank(ParameterBank(entries=entries, source_digest=digest), path)
    return path


@settings(max_examples=30, deadline=None)
@given(entries=st.lists(ENTRIES, max_size=12), targets=st.lists(ENTRIES, min_size=1, max_size=3))
def test_bank_read_through_its_index_equals_the_rebuilt_bank(tmp_path_factory, entries, targets):
    loaded = load_bank(saved(tmp_path_factory.mktemp("bank"), entries))
    rebuilt = ParameterBank(entries=entries, source_digest="d" * 64)
    index = build_index(rebuilt)

    assert loaded.index is not None
    assert build_index(loaded) is loaded.index
    assert [n.hex() for n in loaded.index.length_norms] == [n.hex() for n in index.length_norms]
    assert [list(words) for words in loaded.identities] == [list(words) for words in rebuilt.identities]
    for api_name, pointer in {(e.api_name, e.source_pointer) for e in entries + targets}:
        naive = tuple(i for i, e in enumerate(entries) if (e.api_name, e.source_pointer) == (api_name, pointer))
        assert loaded.entries_with(api_name, pointer) == naive == rebuilt.entries_with(api_name, pointer)
    for target in targets + entries[:3]:
        query = build_query(target)
        assert ranked(score_all(loaded.index, query)) == ranked(score_all(index, query))
        assert ranked(exclude_self(score_all(loaded.index, query), loaded, target)) == ranked(
            exclude_self(score_all(index, query), rebuilt, target)
        )
    assert list(loaded.entries) == entries
    assert loaded.index == index


def test_bank_grown_after_reading_its_identities_saves_a_current_index(tmp_path, corpus_dir):
    bank = mine_bank(corpus_dir)
    assert bank.identities  # cached for the entries mined
    added = dataclasses.replace(bank.entries[0], api_name="added")
    bank.entries.append(added)
    save_bank(bank, tmp_path / "bank.jsonl")
    loaded = load_bank(tmp_path / "bank.jsonl")
    assert loaded.index is not None  # an index written from the cached identities would not match, and be ignored
    assert loaded.entries_with("added", added.source_pointer) == (len(bank.entries) - 1,)
    assert [list(words) for words in loaded.identities] == [list(words) for words in ParameterBank(bank.entries).identities]


MAYBE_STORABLE = st.builds(
    dataclasses.replace,
    parameters(min_examples=0),
    existing_examples=st.lists(EXAMPLE_VALUES, max_size=3).map(tuple),
)


def storable(param):
    return bool(param.existing_examples)


@settings(max_examples=30, deadline=None)
@given(params=st.lists(MAYBE_STORABLE, max_size=3))
def test_every_bank_save_accepts_loads_equal_with_and_without_its_index(tmp_path_factory, params):
    directory = tmp_path_factory.mktemp("bank")
    try:
        path = saved(directory, params)
    except ValueError:
        assert not all(map(storable, params))
        assert list(directory.iterdir()) == []
        return
    assert all(map(storable, params))
    with_index = load_bank(path)
    assert with_index.index is not None and list(with_index.entries) == params
    index_path(path).unlink()
    without = load_bank(path)
    assert without.index is None and without.entries == params


@pytest.mark.parametrize(
    "bad, message",
    [
        (make_param(examples=()), "bank entry 1 has no example"),
        (make_param(description="lone \ud800 surrogate", examples=("1",)), "surrogates not allowed"),
    ],
    ids=["no-example", "lone-surrogate"],
)
def test_save_refuses_what_load_refuses_and_leaves_no_file(tmp_path, bad, message):
    with pytest.raises(ValueError, match=message):
        saved(tmp_path, [make_param(examples=("USD",)), bad])
    assert list(tmp_path.iterdir()) == []


@pytest.fixture()
def bank_path(tmp_path, running_bank):
    """The running example's bank, saved with its index into an empty directory."""
    return saved(tmp_path, list(running_bank.entries), running_bank.source_digest)


def assert_parsed_in_full(path, running_bank):
    bank = load_bank(path)
    assert bank.index is None and isinstance(bank.entries, list)
    assert bank.entries == list(running_bank.entries)
    assert bank.source_digest == running_bank.source_digest


def reseal_index(path, edit):
    """Replace the index file's body by `edit(body)` and give it a checksum that matches again."""
    body = edit(index_path(path).read_bytes()[:-32])
    index_path(path).write_bytes(body + hashlib.sha256(body).digest())


def word_edit(section, value):
    """A body edit that sets the first 32-bit word of `section` to `value`."""

    def edited(body):
        header, terms, _ = body.split(b"\n", 2)
        entries, vocab = json.loads(header)["entries"], len(json.loads(terms))
        word = {"line lengths": 0, "identity entries": 3 * entries, "postings": 4 * entries + 2 * vocab}[section]
        start = len(header) + len(terms) + 2 + 4 * word
        return body[:start] + struct.pack("<I", value) + body[start + 4 :]

    return edited


def header_edit(edit):
    """A body edit that replaces the header by `edit(header)`, written as JSON."""

    def edited(body):
        header, _, rest = body.partition(b"\n")
        return json.dumps(edit(json.loads(header))).encode("utf-8") + b"\n" + rest

    return edited


def test_truncated_index_is_ignored(bank_path, running_bank):
    raw = index_path(bank_path).read_bytes()
    for size in range(0, len(raw), 17):
        index_path(bank_path).write_bytes(raw[:size])
        assert_parsed_in_full(bank_path, running_bank)


def test_index_with_one_byte_flipped_is_ignored(bank_path, running_bank):
    raw = index_path(bank_path).read_bytes()
    for pos in [*range(0, len(raw), 13), len(raw) - 1]:
        index_path(bank_path).write_bytes(raw[:pos] + bytes([raw[pos] ^ 0x01]) + raw[pos + 1 :])
        assert_parsed_in_full(bank_path, running_bank)


def test_index_of_another_version_is_ignored(bank_path, running_bank):
    reseal_index(bank_path, header_edit(lambda header: header))
    assert load_bank(bank_path).index is not None  # the rewrite alone keeps it readable
    reseal_index(bank_path, header_edit(lambda header: {**header, "version": INDEX_VERSION + 1}))
    assert_parsed_in_full(bank_path, running_bank)


MALFORMED_INDEX_BODIES = {
    "header-not-an-object": header_edit(lambda header: [1]),
    "header-without-bank_digest": header_edit(lambda header: {k: v for k, v in header.items() if k != "bank_digest"}),
    "no-LF": lambda body: body.replace(b"\n", b" "),
    "entries-raised-by-50": header_edit(lambda header: {**header, "entries": header["entries"] + 50}),
    "entries-past-64-bits": header_edit(lambda header: {**header, "entries": 2**70}),
    "one-word-more-than-counted": lambda body: body + bytes(4),
    "one-word-fewer-than-counted": lambda body: body[:-4],
    "words-not-whole": lambda body: body + bytes(2),
    "line-lengths-not-summing-to-the-bank": word_edit("line lengths", 1),
    "identity-entry-past-the-end": word_edit("identity entries", 1000),
}


@pytest.mark.parametrize("edit", MALFORMED_INDEX_BODIES.values(), ids=MALFORMED_INDEX_BODIES)
def test_malformed_index_with_a_matching_checksum_is_ignored(bank_path, running_bank, edit):
    reseal_index(bank_path, edit)
    assert_parsed_in_full(bank_path, running_bank)


def test_posting_past_the_end_raises_corrupt_bank_naming_the_index_when_its_term_is_read(bank_path):
    reseal_index(bank_path, word_edit("postings", 1000))
    bank = load_bank(bank_path)
    first, second = sorted(bank.index.postings)[:2]
    assert len(score_all(bank.index, [second])) == len(bank.entries)
    with pytest.raises(CorruptBank) as err:
        score_all(bank.index, [second, first])
    assert str(index_path(bank_path)) in str(err.value)
    assert f"deleting {index_path(bank_path)} is safe" in str(err.value)
    index_path(bank_path).unlink()  # as the message says, the bank then loads and ranks
    assert len(score_all(build_index(load_bank(bank_path)), [first])) == len(bank.entries)


def test_loading_through_the_index_reads_entries_and_postings_only_when_used(bank_path):
    bank = load_bank(bank_path)
    postings = bank.index.postings
    assert postings._read == {} and set(bank.entries._parsed) == {None}
    query = ("currency", "code", "currency", "unheard")
    score_all(bank.index, query)
    assert sorted(postings._read) == ["code", "currency"]
    assert set(bank.entries._parsed) == {None}


# two identities whose identity hashes collide
COLLIDING_POINTERS = ("/paths/~1ecylwtxz/get/parameters/0", "/paths/~1epdnndzu/get/parameters/0")


def test_exclude_self_drops_only_the_target_when_identity_hashes_collide(tmp_path):
    first, second = COLLIDING_POINTERS
    assert identity_hash("rates", first) == identity_hash("rates", second)
    pointers = [first, "/paths/~1x/get/parameters/0", second, first]
    entries = [make_param(api_name="rates", source_pointer=pointer, examples=("USD",)) for pointer in pointers]
    loaded = load_bank(saved(tmp_path, entries))
    assert loaded.index is not None
    for bank in (loaded, ParameterBank(entries=entries)):
        for pointer, own in ((first, (0, 3)), (second, (2,))):
            target = make_param(api_name="rates", source_pointer=pointer)
            assert bank.entries_with("rates", pointer) == own
            ranking = exclude_self(score_all(build_index(bank), build_query(target)), bank, target)
            assert sorted(c.entry_index for c in ranking) == [i for i in range(len(entries)) if i not in own]


def test_exclude_self_returns_the_ranking_itself_when_the_target_is_not_in_the_bank(tmp_path):
    first, second = COLLIDING_POINTERS
    entries = [make_param(api_name="rates", source_pointer=pointer, examples=("USD",)) for pointer in (first, "/p")]
    loaded = load_bank(saved(tmp_path, entries))
    assert loaded.index is not None
    for bank in (loaded, ParameterBank(entries=entries)):
        # the second pointer's identity hash is the first's, but no entry has its identity
        for target in (make_param(api_name="rates", source_pointer=second), make_param(api_name="other")):
            assert bank.entries_with(target.api_name, target.source_pointer) == ()
            ranking = score_all(build_index(bank), build_query(target))
            assert exclude_self(ranking, bank, target) is ranking


@pytest.mark.parametrize(
    "index_version", [None, 2, 3, INDEX_VERSION], ids=["no-index", "old-index", "old-index-3", "vouching-index"]
)
def test_format_1_bank_is_refused_at_line_1(tmp_path, running_bank, monkeypatch, index_version):
    path = tmp_path / "bank.jsonl"
    write_format_1_bank(path, running_bank, index_version)
    with pytest.raises(CorruptBank, match=r"bank format 1 is not 2; run `icicl mine` again") as err:
        load_bank(path)
    assert err.value.line_no == 1
    if index_version == INDEX_VERSION:  # the index alone would have let the bank through
        monkeypatch.setattr("icicl.bank.BANK_FORMAT", 1)
        assert load_bank(path).index is not None


def test_missing_index_is_ignored(bank_path, running_bank):
    index_path(bank_path).unlink()
    assert_parsed_in_full(bank_path, running_bank)


def test_index_of_a_bank_edited_after_saving_is_ignored(bank_path, running_bank):
    text = bank_path.read_text(encoding="utf-8")
    bank_path.write_text(text.replace("Base currency", "Quote currency"), encoding="utf-8")
    bank = load_bank(bank_path)
    assert bank.index is None
    assert bank.entries[1].description == "Quote currency for conversion rates"
    assert bank.entries[2:] == list(running_bank.entries)[2:]


def test_bank_written_without_an_index_loads_unchanged(tmp_path, running_dir, running_bank):
    shutil.copy(running_dir / "bank.jsonl", tmp_path / "bank.jsonl")
    assert_parsed_in_full(tmp_path / "bank.jsonl", running_bank)


def test_running_fixture_loads_through_its_index(running_dir, running_bank):
    assert index_path(running_dir / "bank.jsonl").is_file()
    assert running_bank.index is not None
    assert running_bank.index == build_index(ParameterBank(entries=list(running_bank.entries)))


REPEATING_SPEC = {
    "openapi": "3.0.0",
    "info": {"title": "rates", "version": "1"},
    "paths": {
        "/rates": {
            "get": {
                "operationId": "getRatesByCurrency",
                "parameters": [
                    {"name": f"currency{i}", "in": "query", "description": "Currency code: the ISO currency code",
                     "example": "USD", "schema": {"type": "string"}}
                    for i in range(4)
                ],
            }
        }
    },
}


def test_mining_twice_writes_identical_bank_and_index(tmp_path, corpus_dir):
    """Two `icicl mine` processes with different hash seeds write the same bytes."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    (corpus / "rates.json").write_text(json.dumps(REPEATING_SPEC))  # entries that repeat terms
    written = []
    for seed in ("1", "2"):
        out = tmp_path / f"bank{seed}.jsonl"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        mine = [sys.executable, "-c", "from icicl.cli import main; main()", "mine", str(corpus), "-o", str(out)]
        subprocess.run(mine, env=env, check=True, capture_output=True, timeout=60)
        written.append((out.read_bytes(), index_path(out).read_bytes()))
    assert written[0] == written[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bank1.jsonl", "bank1.jsonl.index", "bank2.jsonl", "bank2.jsonl.index", "corpus"
    ]


def test_lazy_entries_read_from_many_threads_are_equal(tmp_path):
    entries = [
        make_param(param_name=f"p{i}", description=f"code {i % 7} of {i % 11}", source_pointer=f"/p/{i}",
                   examples=(str(i),))
        for i in range(300)
    ]
    loaded = load_bank(saved(tmp_path, entries))
    assert loaded.index is not None
    postings = build_index(ParameterBank(entries=entries)).postings
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            reads = list(pool.map(lambda _: list(loaded.entries), range(8)))
            terms = list(pool.map(lambda _: {t: loaded.index.postings[t] for t in postings}, range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert reads == [entries] * 8
    assert terms == [postings] * 8
    assert loaded.entries[-1] == entries[-1] and loaded.entries[5:7] == entries[5:7]
    with pytest.raises(IndexError):
        loaded.entries[len(entries)]


def test_header_only_bank_without_its_lf_loads_empty(tmp_path):
    path = tmp_path / "bank.jsonl"
    path.write_bytes(json_line({"format": 2, "source_digest": "d" * 64}).rstrip(b"\n"))
    bank = load_bank(path)
    assert bank.entries == [] and bank.index is None and bank.source_digest == "d" * 64


def test_empty_bank_file_is_refused_at_line_1(tmp_path):
    path = tmp_path / "bank.jsonl"
    path.write_bytes(b"")
    with pytest.raises(CorruptBank, match="empty file") as err:
        load_bank(path)
    assert err.value.line_no == 1


def unmappable(*args, **kwargs):
    raise OSError("cannot map")


@pytest.mark.parametrize("with_index", [True, False], ids=["index", "no-index"])
def test_bank_that_cannot_be_mapped_loads_equal_to_the_mapped_one(bank_path, monkeypatch, with_index):
    if not with_index:
        index_path(bank_path).unlink()
    mapped = load_bank(bank_path)
    mapping = mmap.mmap
    monkeypatch.setattr(mmap, "mmap", unmappable)
    read = load_bank(bank_path)
    assert (read.index is not None) == (mapped.index is not None) == with_index
    if with_index:
        assert isinstance(mapped.entries._data, mapping) and isinstance(read.entries._data, bytes)
    assert list(read.entries) == list(mapped.entries)
    assert read.index == mapped.index and read.source_digest == mapped.source_digest


def test_bank_replaced_after_loading_yields_its_old_entries(bank_path, running_bank):
    loaded = load_bank(bank_path)
    assert loaded.index is not None and set(loaded.entries._parsed) == {None}
    replacement = [make_param(examples=("XTS",))]
    save_bank(ParameterBank(entries=replacement, source_digest="e" * 64), bank_path)
    assert list(load_bank(bank_path).entries) == replacement
    assert list(loaded.entries) == list(running_bank.entries)


def reference_digest(data, piece):
    """bank_digest by its definition: the SHA-256 of the SHA-256s of the file's consecutive pieces."""
    return hashlib.sha256(b"".join(hashlib.sha256(data[i : i + piece]).digest() for i in range(0, len(data), piece)))


def lines_of(lengths):
    """Lines of these lengths, LF included, whose bytes differ from line to line."""
    return [bytes((i + j) % 245 + 11 for j in range(n - 1)) + b"\n" for i, n in enumerate(lengths)]


@pytest.mark.parametrize(
    "steps, extra", [(1, -1), (1, 0), (1, 1), (2, 0), (2, 1)], ids=["step-1", "step", "step+1", "2step", "2step+1"]
)
@pytest.mark.parametrize("release", [True, False], ids=["released", "no-MADV_DONTNEED"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mapping_hashed_in_steps_equals_the_whole_hash(tmp_path_factory, steps, extra, release, data):
    """The bank_digest `save_bank` streams line by line equals the one loading
    hashes from the mapped file's pieces on several threads, each step a piece.
    """
    piece = mmap.PAGESIZE
    total = steps * piece + extra
    cuts = data.draw(st.lists(st.integers(1, total - 1), unique=True, max_size=40).map(sorted))
    lines = lines_of(b - a for a, b in zip([0, *cuts], [*cuts, total]))
    path = tmp_path_factory.mktemp("bank") / "bank.jsonl"
    path.write_bytes(b"".join(lines))
    assert path.stat().st_size == total
    sealed_index = hashlib.sha256(b"").digest()  # an empty index body, sealed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bank_module, "BANK_PIECE", piece)
        patch.setattr(bank_module, "_usable_cpus", lambda: 4)
        if not release:
            patch.delattr(mmap, "MADV_DONTNEED", raising=False)
        digest = bank_module._PieceDigest()
        for line in lines:
            digest.update(line)
        streamed = digest.hexdigest()
        mapped = bank_module._read_mapped(path)
        assert not isinstance(mapped, bytes)
        assert bank_module._hashed(sealed_index, mapped) == (True, streamed)
        assert bank_module.bank_digest(mapped) == streamed
    assert streamed == reference_digest(path.read_bytes(), piece).hexdigest()
    assert mapped[:] == path.read_bytes()  # released pages read back from the file
    mapped.close()  # the hash let go of every view of the mapping


def load_on_a_thread(path):
    """What `load_bank(path)` returns or raises, run on a thread of its own and joined under a timeout."""
    outcome = []

    def load():
        try:
            outcome.append(load_bank(path))
        except Exception as exc:  # handed to the test, which asserts on it
            outcome.append(exc)

    thread = threading.Thread(target=load)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return outcome[0]


@pytest.fixture()
def hashing_pools(monkeypatch):
    """The `max_workers` of every pool loading starts, with a bank piece of one page and four CPUs to run on."""
    started = []

    def counted(max_workers, **kwargs):
        started.append(max_workers)
        return ThreadPoolExecutor(max_workers, **kwargs)

    monkeypatch.setattr(bank_module, "BANK_PIECE", mmap.PAGESIZE)
    monkeypatch.setattr(bank_module, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(bank_module, "ThreadPoolExecutor", counted)
    return started


def paged_bank(tmp_path, pages):
    """A bank saved at tmp_path, at least `pages` pages long."""
    entries = [
        make_param(param_name=f"p{i}", source_pointer=f"/p/{i}", examples=(str(i),)) for i in range(15 * pages)
    ]
    path = saved(tmp_path, entries)
    assert path.stat().st_size > pages * mmap.PAGESIZE
    return path


@pytest.mark.parametrize("pages, piece_pages, cpus", [(1, 64, 4), (8, 1, 1)], ids=["one-piece", "one-cpu"])
def test_bank_hashed_inline_loads_without_starting_a_thread(tmp_path, monkeypatch, pages, piece_pages, cpus):
    def refused(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(bank_module, "BANK_PIECE", piece_pages * mmap.PAGESIZE)
    path = paged_bank(tmp_path, pages)
    monkeypatch.setattr(bank_module, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(bank_module, "ThreadPoolExecutor", refused)
    before = threading.active_count()
    assert load_on_a_thread(path).index is not None
    assert threading.active_count() == before


def test_accepted_load_leaves_no_hashing_thread(tmp_path, hashing_pools):
    path = paged_bank(tmp_path, 6)
    pieces = -(-path.stat().st_size // mmap.PAGESIZE)
    before = threading.active_count()
    bank = load_on_a_thread(path)
    assert threading.active_count() == before
    assert bank.index is not None and hashing_pools == [min(4, pieces)]
    assert bank.entries[-1].param_name == "p89"


def stale_bank(path):
    path.write_bytes(path.read_bytes().replace(b"d" * 64, b"e" * 64))


REFUSED_INDEXES = {
    "index-checksum-mismatch": lambda path: index_path(path).write_bytes(index_path(path).read_bytes()[:-1] + b"\0"),
    "other-version": lambda path: reseal_index(path, header_edit(lambda header: {**header, "version": 3})),
    "stale-bank-digest": stale_bank,
    "lines-not-tiling": lambda path: reseal_index(path, word_edit("line lengths", 1)),
    "word-count-disagreeing": lambda path: reseal_index(path, lambda body: body + bytes(4)),
}


@pytest.mark.parametrize("refuse", REFUSED_INDEXES.values(), ids=REFUSED_INDEXES)
def test_refused_index_leaves_no_hashing_thread(tmp_path, hashing_pools, refuse):
    path = paged_bank(tmp_path, 6)
    expected = list(load_bank(path).entries)
    hashing_pools.clear()
    refuse(path)
    before = threading.active_count()
    bank = load_on_a_thread(path)
    assert threading.active_count() == before
    assert bank.index is None and hashing_pools == [4]
    assert bank.entries == expected


@pytest.mark.parametrize("index_version", [INDEX_VERSION, 3], ids=["vouching-index", "other-version"])
def test_exception_in_a_hashing_thread_reaches_the_caller(tmp_path, hashing_pools, monkeypatch, index_version):
    path = paged_bank(tmp_path, 6)
    # an index of another version is refused before its bank digest is read
    reseal_index(path, header_edit(lambda header: {**header, "version": index_version}))
    hash_piece = bank_module._piece_sha256

    def failing(data, start):
        if start == 2 * mmap.PAGESIZE:
            raise OSError("cannot read piece 2")
        return hash_piece(data, start)

    monkeypatch.setattr(bank_module, "_piece_sha256", failing)
    before = threading.active_count()
    outcome = load_on_a_thread(path)
    assert threading.active_count() == before
    assert isinstance(outcome, OSError) and str(outcome) == "cannot read piece 2"
    assert hashing_pools == [4]


def test_version_3_index_is_ignored_with_one_warning_naming_it(bank_path, running_bank, caplog):
    indexed = list(load_bank(bank_path).entries)
    bank_sha256 = hashlib.sha256(bank_path.read_bytes()).hexdigest()
    reseal_index(bank_path, header_edit(lambda header: {"version": 3, "bank_sha256": bank_sha256,
                                                        "entries": header["entries"]}))
    with caplog.at_level("WARNING", logger="icicl.bank"):
        assert_parsed_in_full(bank_path, running_bank)
    assert [r.getMessage() for r in caplog.records] == [
        f"ignoring {index_path(bank_path)}: its version 3 is not {INDEX_VERSION}; run `icicl mine` again to "
        "rewrite it, until then each load parses every line of the bank"
    ]
    assert list(load_bank(bank_path).entries) == indexed


def file_backed_rss_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("RssFile:"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads RssFile from Linux's /proc/self/status")
def test_loading_through_the_index_leaves_the_bank_mostly_unresident(tmp_path):
    entries = [
        make_param(param_name=f"p{i}", source_pointer=f"/p/{i}", examples=(f"{i:04d}" + "x" * 2000,))
        for i in range(4500)
    ]
    path = saved(tmp_path, entries)
    del entries
    size = path.stat().st_size
    assert size >= 8 << 20
    load_bank(path)  # warm up what loading touches of the interpreter and its libraries
    before = file_backed_rss_kb()
    bank = load_bank(path)
    grown = (file_backed_rss_kb() - before) * 1024
    assert bank.index is not None
    assert grown < size / 2, f"RssFile grew by {grown} bytes for a {size}-byte bank"
    assert bank.entries[-1].param_name == "p4499"


TRUNCATE_THEN_READ = """
import sys
from icicl.bank import load_bank
from icicl.errors import CorruptBank

bank = load_bank(sys.argv[1])
assert bank.index is not None
with open(sys.argv[1], "r+b") as fh:
    fh.truncate(100)
try:
    bank.entries[-1]
except CorruptBank as exc:
    print(exc)
"""


def test_bank_truncated_after_loading_raises_corrupt_bank_on_read(tmp_path):
    entries = [make_param(param_name=f"p{i}", source_pointer=f"/p/{i}", examples=(str(i),)) for i in range(300)]
    path = saved(tmp_path, entries)
    assert path.stat().st_size > 4 * mmap.PAGESIZE  # the last entry lies in a page past the new end
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    # a read past the end of a mapped file would kill the process, so it runs in one of its own
    result = subprocess.run(
        [sys.executable, "-c", TRUNCATE_THEN_READ, str(path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "corrupt bank at line 301: the bank file now ends at byte 100: it was truncated after loading\n"
