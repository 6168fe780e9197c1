"""Full enrichment runs: seeding, config, outcome accounting, determinism."""

import json
import re
import threading
import time

import pytest

from icicl.backends import ReplayBackend, prompt_digest
from icicl.errors import BackendRejected, BackendUnavailable, DimensionMismatch
from icicl.document import parse_document
from icicl.model import ParameterBank
from icicl.prompts import RawGeneration
from icicl.pipeline import (
    RunConfig,
    derive_parameter_seed,
    enrich_document,
    load_config_file,
    write_manifest,
)

from support import FixtureEmbedder, make_bank, make_param


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
            "mode=fuzz\n",
            encoding="utf-8",
        )
        values = load_config_file(path)
        assert values == {"endpoint": "http://localhost:9000/v1", "seed": "7", "mode": "fuzz"}

    def test_config_file_bad_line_numbered(self, tmp_path):
        path = tmp_path / "icicl.cfg"
        path.write_text("mode=doc\nnot a pair\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
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
        assert a.manifest.to_dict() == b.manifest.to_dict()


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
        from icicl.model import BankEntry

        param = make_param(
            api_name="rest-countries",
            source_pointer="/paths/~1v2~1currency~1{currency}/get/parameters/0",
            examples=("USD",),
        )
        bank = ParameterBank(
            entries=[BankEntry(parameter=param, canonical_example=param.existing_examples[0])],
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

    def test_accounting_invariant(self, running_doc, running_bank, tmp_path):
        replay = tmp_path / "replay.json"
        replay.write_text('{"default": "", "responses": {}}', encoding="utf-8")
        config = RunConfig(mode="doc", backend="replay")
        result = enrich_document(running_doc, running_bank, config, ReplayBackend(replay), FixtureEmbedder())
        counts = result.manifest.counts
        assert counts["enriched"] + counts["skipped"] + counts["failed"] == counts["extracted"]


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
