"""Full enrichment runs: seeding, config, outcome accounting, determinism."""

import json
import re
import threading
import time

import pytest

from icicl.backends import ReplayBackend, prompt_digest
from icicl.cli import build_run_config, load_config_file
from icicl.errors import BackendRejected, BackendUnavailable, DimensionMismatch, PathCollision
from icicl.document import ApiDocument, parse_document
from icicl.model import ParameterBank
from icicl.prompts import RawGeneration
from icicl.pipeline import (
    MAX_TIMEOUT_MS,
    RunConfig,
    derive_parameter_seed,
    enrich_document,
    write_manifest,
)

from support import REQUIRED_NOT_NAMES_SPEC, FixtureEmbedder, make_bank, make_param, unencodable_enum_tree


@pytest.fixture()
def replay_backend(running_dir):
    return ReplayBackend(running_dir / "replay.json")


RUNNING_DIVERSE = ["USD", "GPP", "USD", "CAD", "ZAR", "CAD", "INR", "MXN", "CNY", "EUR"]


def run_running_example(running_doc, running_bank, replay_backend, **overrides):
    config = RunConfig(mode="fuzz", backend="replay", embedder="remote", **overrides)
    return enrich_document(running_doc, running_bank, config, replay_backend, FixtureEmbedder())


class TestSeeds:
    def test_frozen_value(self):
        param = make_param(api_name="rest-countries", source_pointer="/paths/~1x/get/parameters/0")
        # sha256("0|rest-countries|/paths/~1x/get/parameters/0")[:8] as big-endian
        assert derive_parameter_seed(0, param) == 18216719892615413439

    def test_varies_with_every_ingredient(self):
        base = make_param(api_name="a", source_pointer="/p/1")
        seeds = {
            derive_parameter_seed(0, base),
            derive_parameter_seed(1, base),
            derive_parameter_seed(0, make_param(api_name="b", source_pointer="/p/1")),
            derive_parameter_seed(0, make_param(api_name="a", source_pointer="/p/2")),
        }
        assert len(seeds) == 4

    def test_independent_of_param_name(self):
        a = make_param(param_name="x", api_name="a", source_pointer="/p/1")
        b = make_param(param_name="y", api_name="a", source_pointer="/p/1")
        assert derive_parameter_seed(5, a) == derive_parameter_seed(5, b)


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "both"},
            {"backend": "grpc"},
            {"embedder": "openai"},
            {"shots": 0},
            {"contexts": 0},
            {"diverse_temperature": 2.5},
            {"seed": -1},
            {"seed": 2**64},
            {"parallelism": 0},
            {"overload_suffix": ""},
            {"timeout_ms": 0},
            {"timeout_ms": -5},
            {"context_temperature": float("nan")},
            {"context_temperature": -1.0},
            {"timeout_ms": MAX_TIMEOUT_MS + 1},
            {"timeout_ms": 10_000_000_000_000},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_snapshot_masks_api_key(self):
        snap = RunConfig(api_key="super secret").snapshot()
        assert "api_key" not in snap
        assert snap["api_key_set"] is True
        assert RunConfig().snapshot()["api_key_set"] is False
        assert snap["mode"] == "doc"

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "icicl.cfg"
        path.write_text(
            "# comment line\n"
            "endpoint = http://localhost:9000/v1 # trailing comment\n"
            '\nseed = "7"\n'
            '  # api_key = "commented out"\n'
            "mode=fuzz # = doc\n",
            encoding="utf-8",
        )
        values = load_config_file(path)
        assert values == {"endpoint": "http://localhost:9000/v1", "seed": "7", "mode": "fuzz"}

    @pytest.mark.parametrize(
        "line, value",
        [
            ('api_key = "abc#def"', "abc#def"),
            ('api_key = "abc#def" # the token', "abc#def"),
            ('api_key = " a b "', " a b "),
            ('api_key = ""abc""', '"abc"'),
            ('api_key = "abc"def"', 'abc"def'),
            ('api_key = "abc" # say "hi"', "abc"),
            ('api_key = "abc', '"abc'),
            ('api_key = "ab\u2028\x85cd"', "ab\u2028\x85cd"),
            ("api_key = abc#def", "abc"),
        ],
        ids=["hash-in-quotes", "comment-after-quotes", "spaces-in-quotes", "one-pair-only", "quote-inside",
             "quotes-in-comment", "unclosed", "line-separators-in-quotes", "hash-unquoted"],
    )
    def test_config_file_quotes(self, tmp_path, line, value):
        path = tmp_path / "icicl.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        assert load_config_file(path) == {"api_key": value}

    def test_config_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "icicl.cfg"
        path.write_text("seed = 7\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config_file(path) == {"seed": "7"}
        assert build_run_config(str(path), {}).seed == 7

    def test_config_file_bad_line_numbered(self, tmp_path):
        path = tmp_path / "icicl.cfg"
        path.write_text("mode=doc\nnot a pair\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_config_file(path)
        path.write_bytes(b"mode=doc\r\nseed=1\rnot a pair\r\n")  # CRLF and CR end lines too
        with pytest.raises(ValueError, match="line 3"):
            load_config_file(path)


class TestRunningExample:
    def test_counts_and_outcomes(self, running_doc, running_bank, replay_backend):
        result = run_running_example(running_doc, running_bank, replay_backend)
        assert result.manifest.counts == {
            "extracted": 1,
            "enriched": 1,
            "skipped": 0,
            "failed": 0,
        }
        assert [o.outcome for o in result.manifest.outcomes] == ["enriched"]
        assert result.manifest.bank_digest == running_bank.source_digest

    def test_final_examples(self, running_doc, running_bank, replay_backend):
        result = run_running_example(running_doc, running_bank, replay_backend)
        ptr = "/paths/~1v2~1currency~1{currency}/get/parameters/0"
        assert ptr in result.plan.assignments
        chosen = result.plan.assignments[ptr]
        assert [e.raw_text for e in chosen.examples] == ["USD", "CAD", "EUR"]
        node = result.document.resolve(ptr)
        assert node["schema"]["enum"] == ["USD", "CAD", "EUR"]
        assert node["example"] == "USD"

    def test_record_shape(self, running_doc, running_bank, replay_backend):
        result = run_running_example(running_doc, running_bank, replay_backend)
        assert len(result.records) == 1
        record = result.records[0]
        assert record.greedy.raw_text == "USD"
        assert len(record.diverse_raw) == 10
        assert [v.raw_text for v in record.diverse_raw if v is not None] == RUNNING_DIVERSE

    @pytest.mark.parametrize("contexts", [3, 10, 12])
    def test_record_has_one_slot_per_context(self, running_doc, running_bank, replay_backend, contexts):
        result = run_running_example(running_doc, running_bank, replay_backend, contexts=contexts)
        record = result.records[0]
        assert len(record.diverse_raw) == contexts
        # contexts are drawn in sequence from one seeded stream, so a shorter
        # run sees a prefix of the default run's generations
        texts = [v.raw_text if v else None for v in record.diverse_raw]
        assert texts[:10] == RUNNING_DIVERSE[:contexts]

    def test_wall_time_absent_for_replay(self, running_doc, running_bank, replay_backend):
        result = run_running_example(running_doc, running_bank, replay_backend)
        assert result.manifest.wall_time_ms is None

    def test_manifest_serializes(self, running_doc, running_bank, replay_backend, tmp_path):
        result = run_running_example(running_doc, running_bank, replay_backend)
        path = tmp_path / "manifest.json"
        write_manifest(result.manifest, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["counts"]["enriched"] == 1
        assert data["config"]["mode"] == "fuzz"
        assert data["config"]["api_key_set"] is False
        assert data["wall_time_ms"] is None

    def test_two_runs_identical(self, running_dir, running_doc, running_bank):
        results = []
        for _ in range(2):
            backend = ReplayBackend(running_dir / "replay.json")
            results.append(run_running_example(running_doc, running_bank, backend))
        a, b = results
        assert a.document.serialize() == b.document.serialize()
        assert a.records == b.records
        assert a.manifest == b.manifest


@pytest.mark.parametrize("mode", ["doc", "fuzz"])
@pytest.mark.parametrize(
    "make_doc",
    # no spec text holds enum members JSON cannot encode, so that tree is built in Python
    [lambda: parse_document(REQUIRED_NOT_NAMES_SPEC.encode("utf-8")), lambda: ApiDocument(unencodable_enum_tree(), "yaml")],
    ids=["required", "enum"],
)
def test_spec_that_once_aborted_enrich_runs_every_parameter(running_bank, replay_backend, make_doc, mode):
    doc = make_doc()
    config = RunConfig(mode=mode, backend="replay")
    result = enrich_document(doc, running_bank, config, replay_backend, FixtureEmbedder())
    counts = result.manifest.counts
    assert counts["extracted"] == 3
    assert counts["enriched"] + counts["skipped"] + counts["failed"] == 3
    result.document.serialize()


def trivial_doc():
    from icicl.document import parse_document

    tree = {
        "openapi": "3.1.0",
        "info": {"title": "Trivia", "version": "1"},
        "paths": {"/a": {"get": {"operationId": "getA", "parameters": [
            {"name": "verbose", "in": "query", "schema": {"type": "boolean"}},
            {"name": "color", "in": "query", "schema": {"type": "string", "enum": ["red", "green", "blue", "mauve"]}},
        ]}}},
    }
    return parse_document(json.dumps(tree).encode("utf-8"), format_hint="json")


class TestTrivialParameters:
    def test_skipped_by_default(self, running_bank, running_dir):
        doc = trivial_doc()
        config = RunConfig(mode="doc", backend="replay")
        backend = ReplayBackend(running_dir / "replay.json")
        result = enrich_document(doc, running_bank, config, backend, FixtureEmbedder())
        assert result.manifest.counts == {"extracted": 2, "enriched": 0, "skipped": 2, "failed": 0}
        assert {o.outcome for o in result.manifest.outcomes} == {"skipped_trivial"}
        assert result.records == []
        assert result.plan.assignments == {}

    def test_copied_when_included(self, running_bank, running_dir):
        doc = trivial_doc()
        config = RunConfig(mode="doc", backend="replay", include_trivial=True)
        backend = ReplayBackend(running_dir / "replay.json")
        result = enrich_document(doc, running_bank, config, backend, FixtureEmbedder())
        assert result.manifest.counts["enriched"] == 2
        assert {o.outcome for o in result.manifest.outcomes} == {"enriched_copied"}
        assert result.records == []  # copies generate nothing, so no record

        bool_ptr = "/paths/~1a/get/parameters/0"
        enum_ptr = "/paths/~1a/get/parameters/1"
        bool_set = result.plan.assignments[bool_ptr]
        assert [e.raw_text for e in bool_set.examples] == ["true", "false"]
        assert bool_set.provenance == ("copied", "copied")
        assert bool_set.greedy_included is False
        enum_set = result.plan.assignments[enum_ptr]
        assert [e.raw_text for e in enum_set.examples] == ["red", "green", "blue"]  # first three

        node = result.document.resolve(bool_ptr)
        assert node["schema"]["examples"] == [True, False]  # re-encoded as JSON booleans


class TestFailureOutcomes:
    def test_insufficient_bank(self, running_doc, tmp_path):
        # the only bank entry is the target parameter itself, which self-excludes
        param = make_param(
            api_name="rest-countries",
            source_pointer="/paths/~1v2~1currency~1{currency}/get/parameters/0",
            examples=("USD",),
        )
        bank = ParameterBank(
            entries=[param],
            source_digest="0" * 64,
        )
        replay = tmp_path / "replay.json"
        replay.write_text('{"default": "", "responses": {}}', encoding="utf-8")
        config = RunConfig(mode="doc", backend="replay")
        result = enrich_document(running_doc, bank, config, ReplayBackend(replay), FixtureEmbedder())
        assert result.manifest.counts["failed"] == 1
        assert result.manifest.outcomes[0].outcome == "failed_insufficient_bank"
        record = result.records[0]
        assert record.greedy is None and record.final is None
        assert record.diverse_raw == ()

    @pytest.mark.parametrize("contexts", [3, 10])
    def test_all_diverse_calls_empty(self, running_dir, running_doc, running_bank, tmp_path, contexts):
        greedy_prompt = (running_dir / "goldens" / "greedy_prompt.txt").read_text(encoding="utf-8")
        replay = tmp_path / "replay.json"
        replay.write_text(
            json.dumps({"default": "", "responses": {prompt_digest(greedy_prompt): ['"USD"']}}), encoding="utf-8"
        )
        config = RunConfig(mode="doc", backend="replay", contexts=contexts)
        result = enrich_document(running_doc, running_bank, config, ReplayBackend(replay), FixtureEmbedder())
        assert result.manifest.outcomes[0].outcome == "failed_backend"
        record = result.records[0]
        assert record.greedy.raw_text == "USD"
        assert record.diverse_raw == (None,) * contexts  # every call ran and came back empty

    def test_greedy_missing_on_empty_default(self, running_doc, running_bank, tmp_path):
        replay = tmp_path / "replay.json"
        replay.write_text('{"default": "", "responses": {}}', encoding="utf-8")
        config = RunConfig(mode="doc", backend="replay")
        result = enrich_document(running_doc, running_bank, config, ReplayBackend(replay), FixtureEmbedder())
        assert result.manifest.outcomes[0].outcome == "failed_greedy_missing"
        assert result.manifest.counts["failed"] == 1
        assert result.plan.assignments == {}
        (record,) = result.records
        assert record.greedy is None and record.diverse_raw == () and record.final is None

    def test_greedy_call_failure_records_no_values(self, running_doc, running_bank):
        class Down:
            is_deterministic = True

            def complete(self, request):
                raise BackendUnavailable("endpoint unreachable")

        result = enrich_document(running_doc, running_bank, RunConfig(), Down(), FixtureEmbedder())
        assert result.manifest.outcomes[0].outcome == "failed_backend"
        (record,) = result.records
        assert record.greedy is None and record.diverse_raw == () and record.final is None

    def test_accounting_invariant(self, running_doc, running_bank, tmp_path):
        replay = tmp_path / "replay.json"
        replay.write_text('{"default": "", "responses": {}}', encoding="utf-8")
        config = RunConfig(mode="doc", backend="replay")
        result = enrich_document(running_doc, running_bank, config, ReplayBackend(replay), FixtureEmbedder())
        counts = result.manifest.counts
        assert counts["enriched"] + counts["skipped"] + counts["failed"] == counts["extracted"]


class Scripted:
    """Deterministic backend double: answers each call with the next item of a
    script, raising it when it is an exception, and keeps every request."""

    is_deterministic = True

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return RawGeneration(text=item, backend_id="scripted")


class TestDiverseCalls:
    def test_answers_fill_the_slots_in_context_order(self, running_doc, running_bank, goldens_dir):
        backend = Scripted(['"USD"', '"r0"', '"r1"', '"r2"'])
        result = enrich_document(running_doc, running_bank, RunConfig(contexts=3), backend, FixtureEmbedder())
        (record,) = result.records
        assert [v.raw_text for v in record.diverse_raw] == ["r0", "r1", "r2"]
        # after the greedy prompt, the j-th request holds context j's prompt
        goldens = ["greedy_prompt.txt"] + [f"diverse_prompt_{j:02d}.txt" for j in range(3)]
        assert [r.prompt for r in backend.requests] == [(goldens_dir / g).read_text(encoding="utf-8") for g in goldens]

    @pytest.mark.parametrize("failed", [0, 1, 2])
    def test_a_failed_call_leaves_its_slot_empty(self, running_doc, running_bank, caplog, failed):
        script = ['"r0"', '"r1"', '"r2"']
        script[failed] = BackendRejected(500, "boom")
        backend = Scripted(['"USD"', *script])
        result = enrich_document(running_doc, running_bank, RunConfig(contexts=3), backend, FixtureEmbedder())
        assert [o.outcome for o in result.manifest.outcomes] == ["enriched"]
        (record,) = result.records
        expected = [f"r{j}" if j != failed else None for j in range(3)]
        assert [v.raw_text if v else None for v in record.diverse_raw] == expected
        assert [r.getMessage() for r in caplog.records if "call failed" in r.getMessage()] == [
            "diverse call failed: backend rejected request: HTTP 500: boom"
        ]

    def test_greedy_call_at_temperature_zero_and_diverse_at_the_configured_one(self, running_doc, running_bank):
        backend = Scripted(['"USD"', '"r0"', '"r1"', '"r2"'])
        config = RunConfig(contexts=3, diverse_temperature=0.7)
        enrich_document(running_doc, running_bank, config, backend, FixtureEmbedder())
        assert [r.temperature for r in backend.requests] == [0.0, 0.7, 0.7, 0.7]


@pytest.mark.parametrize("mode", ["doc", "fuzz"])
def test_a_quoted_answer_that_reads_as_a_number_is_written_as_a_string(running_doc, running_bank, mode):
    class Zip:
        is_deterministic = True

        def complete(self, request):
            return RawGeneration(text='"94103"', backend_id="zip")

    config = RunConfig(mode=mode, contexts=3)
    result = enrich_document(running_doc, running_bank, config, Zip(), FixtureEmbedder())
    assert [o.outcome for o in result.manifest.outcomes] == ["enriched"]
    node = parse_document(result.document.serialize()).resolve("/paths/~1v2~1currency~1{currency}/get/parameters/0")
    assert node["schema"]["examples" if mode == "doc" else "enum"] == ["94103"]


class RaisingEmbedder:
    provider_id = "raising"

    def __init__(self, exc):
        self.exc = exc

    def embed(self, texts):
        raise self.exc


@pytest.mark.parametrize(
    "exc",
    [BackendUnavailable("embedding endpoint unreachable"), BackendRejected(503, "busy"), DimensionMismatch("3 vs 4")],
    ids=["unavailable", "rejected", "dimension"],
)
def test_embedder_failure_is_a_parameter_outcome(running_doc, running_bank, replay_backend, exc):
    config = RunConfig(mode="doc", backend="replay")
    result = enrich_document(running_doc, running_bank, config, replay_backend, RaisingEmbedder(exc))
    assert [o.outcome for o in result.manifest.outcomes] == ["failed_embedding"]
    assert result.manifest.counts == {"extracted": 1, "enriched": 0, "skipped": 0, "failed": 1}
    assert result.plan.assignments == {}
    (record,) = result.records
    assert record.greedy.raw_text == "USD"
    assert [v.raw_text for v in record.diverse_raw if v is not None] == RUNNING_DIVERSE
    assert record.final is None


def three_param_doc():
    params = [
        {"name": name, "in": "query", "description": desc, "schema": {"type": "string"}}
        for name, desc in [
            ("currency", "Search by ISO 4217 currency code"),
            ("base", "Base currency for conversion rates"),
            ("symbols", "Currency symbols to filter results by"),
        ]
    ]
    tree = {
        "openapi": "3.1.0",
        "info": {"title": "Rates", "version": "1"},
        "paths": {"/rates": {"get": {"operationId": "getRates", "parameters": params}}},
    }
    return parse_document(json.dumps(tree).encode("utf-8"), format_hint="json")


@pytest.mark.parametrize("answer", ["NaN", "Infinity", "-Infinity", "1e999", "[1, NaN]"])
def test_non_finite_completions_leave_strict_json(running_bank, answer):
    doc = three_param_doc()
    doc.root["paths"]["/rates"]["get"]["parameters"] = [
        {"name": "amount", "in": "query", "description": "Amount to convert", "schema": {"type": "number"}},
        {"name": "filter", "in": "query", "description": "Free-form currency filter", "schema": {}},
    ]

    class Constant:
        is_deterministic = True

        def complete(self, request):
            return RawGeneration(text=answer, backend_id="constant")

    result = enrich_document(doc, running_bank, RunConfig(contexts=3), Constant(), FixtureEmbedder())

    def not_json(token):
        raise ValueError(f"{token} is not JSON")

    amount, free = json.loads(result.document.serialize(), parse_constant=not_json)["paths"]["/rates"]["get"][
        "parameters"
    ]
    assert "examples" not in amount["schema"]  # text is no number
    assert free["schema"]["examples"] == [answer]


@pytest.mark.parametrize("mode", ["doc", "fuzz"])
def test_a_run_extracts_the_target_once(running_bank, caplog, mode):
    doc = three_param_doc()
    doc.root["components"] = {"schemas": {"A": {"type": "array", "items": {"$ref": "#/components/schemas/A"}}}}
    doc.root["paths"]["/rates"]["get"]["parameters"].append(
        {"name": "nested", "in": "query", "schema": {"$ref": "#/components/schemas/A"}}
    )
    config = RunConfig(mode=mode, backend="replay", contexts=3)
    result = enrich_document(doc, running_bank, config, CallLog(is_deterministic=True), FixtureEmbedder())
    assert result.plan.methods == {"/rates": {"get"}}
    warnings = [r.getMessage() for r in caplog.records if r.name == "icicl.extract"]
    assert warnings == ["recursive array schema at '/components/schemas/A': its items are unknown"]


def target_name(prompt):
    """The parameter a prompt asks about: the param_name of its last input block."""
    return re.findall(r'"param_name": "([^"]*)"', prompt)[-1]


class CallLog:
    """Backend double that logs (target parameter, temperature) per call."""

    REPLIES = ['"USD"', '"EUR"', '"CAD"', '"GBP"', '"JPY"']

    def __init__(self, is_deterministic, greedy_barrier=None):
        self.is_deterministic = is_deterministic
        self.greedy_barrier = greedy_barrier
        self.calls = []
        self._lock = threading.Lock()

    def complete(self, request):
        if request.temperature == 0.0 and self.greedy_barrier is not None:
            self.greedy_barrier.wait()
        time.sleep(0.002)  # like a real call, let other workers run meanwhile
        with self._lock:
            self.calls.append((target_name(request.prompt), request.temperature))
            reply = self.REPLIES[len(self.calls) % len(self.REPLIES)]
        return RawGeneration(text=reply, backend_id="log")


def test_deterministic_backend_runs_one_parameter_at_a_time(running_bank):
    backend = CallLog(is_deterministic=True)
    config = RunConfig(mode="doc", backend="replay", parallelism=4, contexts=3)
    result = enrich_document(three_param_doc(), running_bank, config, backend, FixtureEmbedder())
    assert result.manifest.counts["extracted"] == 3
    expected = []
    for name in ["currency", "base", "symbols"]:
        expected += [(name, 0.0)] + [(name, config.diverse_temperature)] * 3
    assert backend.calls == expected


def test_live_backend_runs_parameters_at_once(running_bank):
    doc = three_param_doc()
    del doc.root["paths"]["/rates"]["get"]["parameters"][2]
    # each greedy call waits for the other one; run one at a time, the barrier breaks
    backend = CallLog(is_deterministic=False, greedy_barrier=threading.Barrier(2, timeout=5))
    config = RunConfig(mode="doc", parallelism=2, contexts=3)
    result = enrich_document(doc, running_bank, config, backend, FixtureEmbedder())
    assert result.manifest.counts == {"extracted": 2, "enriched": 2, "skipped": 0, "failed": 0}
    assert sorted(name for name, temperature in backend.calls if temperature == 0.0) == ["base", "currency"]


def colliding_doc(schema):
    """A spec whose path /a already has its fuzz overload path beside it."""
    tree = {
        "openapi": "3.1.0",
        "info": {"title": "Clash", "version": "1"},
        "paths": {
            "/a": {"get": {"operationId": "getA", "parameters": [
                {"name": "currency", "in": "query", "description": "Search by currency", "schema": schema},
            ]}},
            "/a__icicl_orig": {"get": {"operationId": "other"}},
        },
    }
    return parse_document(json.dumps(tree).encode("utf-8"), format_hint="json")


@pytest.mark.parametrize(
    "schema,include_trivial",
    [({"type": "string"}, False), ({"type": "boolean"}, True)],
    ids=["sent-to-the-model", "copied-trivial"],
)
def test_fuzz_overload_collision_is_raised_before_any_call(running_bank, schema, include_trivial):
    backend = CallLog(is_deterministic=True)
    config = RunConfig(mode="fuzz", backend="replay", contexts=3, include_trivial=include_trivial)
    with pytest.raises(PathCollision, match="overload path already present: '/a__icicl_orig'"):
        enrich_document(colliding_doc(schema), running_bank, config, backend, FixtureEmbedder())
    assert backend.calls == []


@pytest.mark.parametrize(
    "mode,schema,counts",
    [
        ("fuzz", {"type": "boolean"}, {"extracted": 1, "enriched": 0, "skipped": 1, "failed": 0}),
        ("doc", {"type": "string"}, {"extracted": 1, "enriched": 1, "skipped": 0, "failed": 0}),
    ],
    ids=["skipped-trivial", "doc-mode"],
)
def test_overload_path_without_an_assignable_parameter_or_fuzz_mode_is_no_collision(running_bank, mode, schema, counts):
    config = RunConfig(mode=mode, backend="replay", contexts=3)
    result = enrich_document(colliding_doc(schema), running_bank, config, CallLog(is_deterministic=True), FixtureEmbedder())
    assert result.manifest.counts == counts
