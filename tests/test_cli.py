"""Command line behavior: subcommands, config layering, exit codes."""

import errno
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import click
import pytest
from click.testing import CliRunner

import icicl.cli
import icicl.pipeline
from icicl.bank import load_bank
from icicl.cli import build_run_config, main
from icicl.document import MAX_DEPTH, parse_document
from icicl.errors import PathCollision
from icicl.extract import extract_parameters
from icicl.model import SchemaType
from icicl.pipeline import RunConfig

from support import DEEP_JSON, EmbedServer, local_server, validate_openapi, write_format_1_bank


@pytest.fixture()
def runner():
    return CliRunner()


def enrich_args(running_dir, out_path, *extra, command="enrich"):
    return [
        command,
        str(running_dir / "spec.yaml"),
        str(out_path),
        "--bank",
        str(running_dir / "bank.jsonl"),
        "--backend",
        "replay",
        "--replay-file",
        str(running_dir / "replay.json"),
        "--seed",
        "0",
        *extra,
    ]


# `icicl ARGS...` whose bank is truncated to 100 bytes once it is loaded
TRUNCATE_AFTER_LOADING = """
import sys
import icicl.cli
from icicl.bank import load_bank

def load_then_truncate(path):
    bank = load_bank(path)
    with open(path, "r+b") as fh:
        fh.truncate(100)
    return bank

icicl.cli.load_bank = load_then_truncate
icicl.cli.main(sys.argv[1:])
"""


@pytest.fixture()
def replay_calls(monkeypatch):
    """The completions the CLI's replay backend is asked for, in call order."""
    calls = []

    class CountingReplay(icicl.cli.ReplayBackend):
        def complete(self, request):
            calls.append(request)
            return super().complete(request)

    monkeypatch.setattr(icicl.cli, "ReplayBackend", CountingReplay)
    return calls


@pytest.fixture()
def running_copy(running_dir, tmp_path):
    """A copy of the running example's files, which a test may overwrite."""
    return Path(shutil.copytree(running_dir, tmp_path / "running"))


def tree_bytes(root):
    """Each path under `root` with its bytes, None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


def spy(monkeypatch, name):
    """Replace `icicl.cli.<name>` with a stub that only records its calls."""
    calls = []
    monkeypatch.setattr(icicl.cli, name, lambda *args, **kwargs: calls.append(args))
    return calls


class TestMine:
    def test_corpus_counts_and_digest(self, runner, corpus_dir, tmp_path):
        out = tmp_path / "bank.jsonl"
        result = runner.invoke(main, ["mine", str(corpus_dir), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert "parameters: 40, with examples: 6" in result.output
        match = re.search(r"source digest ([0-9a-f]{64})", result.output)
        assert match
        bank = load_bank(out)
        assert len(bank.entries) == 6
        assert bank.source_digest == match.group(1)

    def test_include_filter(self, runner, corpus_dir, tmp_path):
        out = tmp_path / "bank.jsonl"
        result = runner.invoke(
            main, ["mine", str(corpus_dir), "-o", str(out), "--include", "*.json"]
        )
        assert result.exit_code == 0, result.output
        assert "parameters: 16, with examples: 3" in result.output

    @pytest.mark.parametrize(
        "pattern,problem",
        [("{corpus}/*.json", "is absolute"), ("../*.json", "has a '..' part"), ("**/../../*.json", "has a '..' part")],
        ids=["absolute", "parent", "parent-below-a-glob"],
    )
    def test_absolute_include_is_usage_error_before_mining(self, runner, corpus_dir, tmp_path, monkeypatch, pattern, problem):
        mined = spy(monkeypatch, "mine_bank")
        pattern = pattern.format(corpus=corpus_dir.resolve())
        result = runner.invoke(main, ["mine", str(corpus_dir), "-o", str(tmp_path / "bank.jsonl"), "--include", pattern])
        assert result.exit_code == 2, result.output + result.stderr
        assert f"--include {pattern!r} {problem}" in result.stderr
        assert mined == [] and list(tmp_path.iterdir()) == []

    def test_empty_corpus_fails_cleanly(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "bank.jsonl"
        result = runner.invoke(main, ["mine", str(empty), "-o", str(out)])
        assert result.exit_code == 1
        assert "Error" in result.stderr

    def test_missing_out_flag_is_usage_error(self, runner, corpus_dir):
        result = runner.invoke(main, ["mine", str(corpus_dir)])
        assert result.exit_code == 2

    def test_missing_output_dir_is_usage_error_before_mining(self, runner, corpus_dir, tmp_path, monkeypatch):
        mined = spy(monkeypatch, "mine_bank")
        result = runner.invoke(main, ["mine", str(corpus_dir), "-o", str(tmp_path / "nodir" / "bank.jsonl")])
        assert result.exit_code == 2, result.output + result.stderr
        assert "output directory does not exist" in result.stderr
        assert mined == []

    def test_index_that_is_a_directory_is_usage_error_before_mining(self, runner, corpus_dir, tmp_path, monkeypatch):
        mined = spy(monkeypatch, "mine_bank")
        (tmp_path / "bank.jsonl.index").mkdir()
        result = runner.invoke(main, ["mine", str(corpus_dir), "-o", str(tmp_path / "bank.jsonl")])
        assert result.exit_code == 2, result.output + result.stderr
        assert f"-o's index is a directory: {tmp_path / 'bank.jsonl.index'}" in result.stderr
        assert mined == []
        assert list(tmp_path.iterdir()) == [tmp_path / "bank.jsonl.index"]

    @pytest.mark.parametrize(
        "out, includes, clash",
        [
            ("petstore.json", (), "-o and mined file petstore.json"),
            ("notes", ("*.json", "*.index"), "-o's index and mined file notes.index"),
        ],
        ids=["bank", "index"],
    )
    def test_output_that_is_a_mined_file_is_usage_error_before_mining(
        self, runner, corpus_dir, tmp_path, monkeypatch, out, includes, clash
    ):
        mined = spy(monkeypatch, "mine_bank")
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        (corpus / "notes.index").write_bytes(b"kept")
        before = {p.name: p.read_bytes() for p in corpus.iterdir()}
        args = ["mine", str(corpus), "-o", str(corpus / out), *(f"--include={i}" for i in includes)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output + result.stderr
        assert f"{clash} name the same file" in result.stderr
        assert mined == []
        assert {p.name: p.read_bytes() for p in corpus.iterdir()} == before

    def test_failed_write_exits_one_naming_the_path(self, runner, corpus_dir, tmp_path, monkeypatch):
        def no_space(bank, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(icicl.cli, "save_bank", no_space)
        out = tmp_path / "bank.jsonl"
        result = runner.invoke(main, ["mine", str(corpus_dir), "-o", str(out)])
        assert result.exit_code == 1, result.output + result.stderr
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"Error: cannot write {out}: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("fmt", ["json", "yaml"])
    def test_spec_with_lone_surrogate_is_skipped(self, runner, corpus_dir, tmp_path, caplog, fmt):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "petstore.json").write_bytes((corpus_dir / "petstore.json").read_bytes())
        (corpus / f"bad.{fmt}").write_text(LONE_SURROGATE_SPECS[fmt], encoding="utf-8")
        out = tmp_path / "bank.jsonl"
        result = runner.invoke(main, ["mine", str(corpus), "-o", str(out)])
        assert result.exit_code == 0, result.output + result.stderr
        assert f"skipping bad.{fmt}: string holds U+D800" in caplog.text
        assert [p.param_name for p in load_bank(out).entries] == ["limit"]

    def test_spec_with_a_bad_explicit_tag_is_skipped(self, runner, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.yaml").write_text(RECURSIVE_ARRAY_SPEC.replace("example: [[]]", "example: !!bool maybe"))
        result = runner.invoke(main, ["mine", str(corpus), "-o", str(tmp_path / "bank.jsonl")])
        assert result.exit_code == 1
        assert "skipping bad.yaml: 'maybe' is not a valid bool (line 8, column" in caplog.text
        assert "no parseable spec" in result.stderr

    def test_recursive_array_schema_is_mined(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "rec.yaml").write_text(RECURSIVE_ARRAY_SPEC, encoding="utf-8")
        out = tmp_path / "bank.jsonl"
        result = runner.invoke(main, ["mine", str(corpus), "-o", str(out)])
        assert result.exit_code == 0, result.output + result.stderr
        (entry,) = load_bank(out).entries
        assert entry.declared_type == SchemaType("array", item_kind=SchemaType("unknown"))

    def test_ref_to_a_non_object_is_unknown_and_the_corpus_is_mined(self, runner, corpus_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        (corpus / "titles.yaml").write_text(REF_TO_A_TEXT_SPEC, encoding="utf-8")
        out = tmp_path / "bank.jsonl"
        result = runner.invoke(main, ["mine", str(corpus), "-o", str(out)])
        assert result.exit_code == 0, result.output + result.stderr
        mined = {e.param_name: e.declared_type for e in load_bank(out).entries if e.api_name == "titles"}
        unknown = SchemaType("unknown")
        # the body property `p` classifies as unknown too, so it is no scalar field
        assert mined == {"s": unknown, "a": SchemaType("array", item_kind=unknown), "q": SchemaType("integer")}


# a parameter schema, array items and a body property that each $ref a text
REF_TO_A_TEXT_SPEC = """\
openapi: 3.0.0
info: {title: Titles, version: '1'}
paths:
  /t:
    post:
      operationId: postT
      parameters:
        - {name: s, in: query, schema: {$ref: '#/info/title'}, example: x}
        - {name: a, in: query, schema: {type: array, items: {$ref: '#/info/title'}}, example: [x]}
      requestBody:
        content:
          application/json:
            schema:
              type: object
              properties:
                p: {$ref: '#/info/title', example: y}
                q: {type: integer, example: 3}
      responses: {}
"""


# one query parameter whose example is an escaped lone surrogate
LONE_SURROGATE_SPECS = {
    "json": '{"openapi": "3.0.0", "info": {"title": "s", "version": "1"}, "paths": {"/x": {"get": {"operationId": "getX",'
    ' "parameters": [{"name": "code", "in": "query", "schema": {"type": "string"}, "example": "\\ud800"}], "responses": {}}}}}',
    "yaml": 'openapi: 3.0.0\ninfo: {title: s, version: "1"}\npaths:\n  /x:\n    get:\n      operationId: getX\n'
    '      parameters:\n        - {name: code, in: query, schema: {type: string}, example: "\\ud800"}\n      responses: {}\n',
}

# an array parameter whose items are the array itself
RECURSIVE_ARRAY_SPEC = """\
openapi: 3.0.0
info: {title: rec, version: "1"}
paths:
  /x:
    get:
      operationId: getX
      parameters:
        - {name: codes, in: query, schema: {$ref: '#/components/schemas/A'}, example: [[]]}
      responses: {}
components:
  schemas:
    A: {type: array, items: {$ref: '#/components/schemas/A'}}
"""


# a body property whose name YAML 1.1 would load as True
LIGHTS_SPEC = """\
openapi: 3.0.0
info: {title: Lights, version: '1'}
paths:
  /lights:
    post:
      operationId: setLight
      requestBody:
        content:
          application/json:
            schema:
              type: object
              properties:
                on: {type: string, description: Colour the light shows when on}
      responses: {}
"""


class TestEnrich:
    @pytest.mark.parametrize("mode", ["doc", "fuzz"])
    def test_yaml_key_that_loads_as_a_boolean_is_enriched(self, runner, running_dir, tmp_path, mode):
        spec, replay, out = tmp_path / "lights.yaml", tmp_path / "replay.json", tmp_path / "out.yaml"
        spec.write_text(LIGHTS_SPEC, encoding="utf-8")
        replay.write_text(json.dumps({"default": '"green"'}), encoding="utf-8")
        result = runner.invoke(
            main,
            ["enrich", str(spec), str(out), "--mode", mode, "--bank", str(running_dir / "bank.jsonl"),
             "--backend", "replay", "--replay-file", str(replay)],
        )
        assert result.exit_code == 0, result.output + result.stderr
        assert "enriched 1/1 parameters (0 skipped, 0 failed)" in result.output
        param = extract_parameters(parse_document(out.read_bytes()))[0]
        assert param.source_pointer.endswith("/properties/on")
        assert [e.raw_text for e in param.existing_examples] == ["green"]
        assert b"'on':" in out.read_bytes() and b"true:" not in out.read_bytes()

    def test_running_example_fuzz(self, runner, running_dir, tmp_path):
        out = tmp_path / "enhanced.yaml"
        with EmbedServer() as server:
            result = runner.invoke(
                main,
                enrich_args(
                    running_dir, out, "--mode", "fuzz", "--embedder", "remote",
                    "--embed-endpoint", server.endpoint,
                ),
            )
        assert result.exit_code == 0, result.output + result.stderr
        assert "enriched 1/1 parameters (0 skipped, 0 failed)" in result.output

        doc = parse_document(out.read_bytes())
        node = doc.resolve("/paths/~1v2~1currency~1{currency}/get/parameters/0")
        assert node["schema"]["enum"] == ["USD", "CAD", "EUR"]
        assert node["example"] == "USD"
        assert "/v2/currency/{currency}__icicl_orig" in doc.root["paths"]
        assert validate_openapi(doc.root) == []

        records_file = tmp_path / "enhanced.yaml.records.jsonl"
        manifest_file = tmp_path / "enhanced.yaml.manifest.json"
        assert records_file.exists() and manifest_file.exists()
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
        assert manifest["counts"] == {"extracted": 1, "enriched": 1, "skipped": 0, "failed": 0}
        assert manifest["wall_time_ms"] is None

    def test_doc_mode_default(self, runner, running_dir, tmp_path):
        out = tmp_path / "documented.yaml"
        with EmbedServer() as server:
            result = runner.invoke(
                main,
                enrich_args(
                    running_dir, out, "--embedder", "remote", "--embed-endpoint", server.endpoint
                ),
            )
        assert result.exit_code == 0, result.output + result.stderr
        doc = parse_document(out.read_bytes())
        node = doc.resolve("/paths/~1v2~1currency~1{currency}/get/parameters/0")
        assert node["schema"]["examples"] == ["USD", "CAD", "EUR"]
        assert "enum" not in node["schema"]
        assert "__icicl_orig" not in "".join(doc.root["paths"])

    def test_fuzz_prep_matches_enrich_mode_fuzz(self, runner, running_dir, tmp_path):
        out_a = tmp_path / "a.yaml"
        out_b = tmp_path / "b.yaml"
        with EmbedServer() as server:
            embed = ["--embedder", "remote", "--embed-endpoint", server.endpoint]
            res_a = runner.invoke(
                main, enrich_args(running_dir, out_a, "--mode", "fuzz", *embed)
            )
            res_b = runner.invoke(
                main, enrich_args(running_dir, out_b, *embed, command="fuzz-prep")
            )
        assert res_a.exit_code == 0 and res_b.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        records_a = (tmp_path / "a.yaml.records.jsonl").read_bytes()
        records_b = (tmp_path / "b.yaml.records.jsonl").read_bytes()
        assert records_a == records_b
        manifest_a = (tmp_path / "a.yaml.manifest.json").read_bytes()
        manifest_b = (tmp_path / "b.yaml.manifest.json").read_bytes()
        assert manifest_a == manifest_b

    def test_custom_record_and_manifest_paths(self, runner, running_dir, tmp_path):
        out = tmp_path / "out.yaml"
        records = tmp_path / "r.jsonl"
        manifest = tmp_path / "m.json"
        with EmbedServer() as server:
            result = runner.invoke(
                main,
                enrich_args(
                    running_dir, out, "--embedder", "remote", "--embed-endpoint", server.endpoint,
                    "--records", str(records), "--manifest", str(manifest),
                ),
            )
        assert result.exit_code == 0, result.output + result.stderr
        assert records.exists() and manifest.exists()
        assert not (tmp_path / "out.yaml.records.jsonl").exists()

    def test_all_trivial_run_exits_one_but_writes_outputs(self, runner, running_dir, tmp_path):
        spec = tmp_path / "trivial.json"
        spec.write_text(
            json.dumps(
                {
                    "openapi": "3.1.0",
                    "info": {"title": "Trivia", "version": "1"},
                    "paths": {"/a": {"get": {"operationId": "getA", "parameters": [
                        {"name": "flag", "in": "query", "schema": {"type": "boolean"}},
                    ]}}},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out.json"
        result = runner.invoke(
            main,
            [
                "enrich", str(spec), str(out),
                "--bank", str(running_dir / "bank.jsonl"),
                "--backend", "replay",
                "--replay-file", str(running_dir / "replay.json"),
            ],
        )
        assert result.exit_code == 1
        assert "no parameter was enriched" in result.stderr
        assert out.exists()  # outputs land on disk before the failure signal
        manifest = json.loads((tmp_path / "out.json.manifest.json").read_text(encoding="utf-8"))
        assert manifest["counts"]["skipped"] == 1

    def test_empty_bank_fails_every_model_bound_parameter(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        params = [
            {"name": "flag", "in": "query", "schema": {"type": "boolean"}},
            {"name": "city", "in": "query", "description": "City to look up", "schema": {"type": "string"}},
        ]
        tree = {
            "openapi": "3.1.0",
            "info": {"title": "Weather", "version": "1"},
            "paths": {"/w": {"get": {"operationId": "getWeather", "parameters": params}}},
        }
        (corpus / "weather.json").write_text(json.dumps(tree), encoding="utf-8")
        bank = tmp_path / "bank.jsonl"
        mined = runner.invoke(main, ["mine", str(corpus), "-o", str(bank)])
        assert mined.exit_code == 0, mined.output + mined.stderr
        assert "with examples: 0" in mined.output
        replay = tmp_path / "replay.json"
        replay.write_text('{"responses": {}}', encoding="utf-8")
        out = tmp_path / "out.json"
        result = runner.invoke(
            main,
            ["enrich", str(corpus / "weather.json"), str(out), "--bank", str(bank),
             "--backend", "replay", "--replay-file", str(replay)],
        )
        assert result.exit_code == 1, result.output + result.stderr
        assert "no parameter was enriched" in result.stderr
        assert out.exists() and (tmp_path / "out.json.records.jsonl").exists()
        manifest = json.loads((tmp_path / "out.json.manifest.json").read_text(encoding="utf-8"))
        assert [o["outcome"] for o in manifest["outcomes"]] == ["skipped_trivial", "failed_insufficient_bank"]

    def test_failing_embedder_still_writes_artifacts(self, runner, running_dir, tmp_path):
        out = tmp_path / "out.yaml"
        rec = tmp_path / "rec.json"
        # nothing listens on port 1, so every embedding request is refused
        args = enrich_args(
            running_dir, out, "--embedder", "remote", "--embed-endpoint", "http://127.0.0.1:1/never",
            "--record-file", str(rec),
        )
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "no parameter was enriched" in result.stderr
        assert out.exists() and rec.exists()
        manifest = json.loads((tmp_path / "out.yaml.manifest.json").read_text(encoding="utf-8"))
        assert [o["outcome"] for o in manifest["outcomes"]] == ["failed_embedding"]
        (record,) = [json.loads(line) for line in (tmp_path / "out.yaml.records.jsonl").read_text(encoding="utf-8").splitlines()]
        assert record["greedy"]["raw_text"] == "USD"
        assert len(record["diverse_raw"]) == 10
        assert record["final"] is None

    def test_api_name_override_reaches_manifest(self, runner, running_dir, tmp_path):
        out = tmp_path / "out.yaml"
        result = runner.invoke(
            main, enrich_args(running_dir, out, "--api-name", "custom-api")
        )
        # renamed target misses every replay fixture prompt, so the run fails,
        # but the override is visible in the manifest outcomes
        assert result.exit_code == 1
        manifest = json.loads(
            (tmp_path / "out.yaml.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["outcomes"][0]["api_name"] == "custom-api"

    def test_replay_without_file_is_usage_error(self, runner, running_dir, tmp_path):
        result = runner.invoke(
            main,
            [
                "enrich", str(running_dir / "spec.yaml"), str(tmp_path / "out.yaml"),
                "--bank", str(running_dir / "bank.jsonl"),
                "--backend", "replay",
            ],
        )
        assert result.exit_code == 2
        assert "--replay-file" in result.stderr

    @pytest.mark.parametrize(
        "content",
        [None, "spec", "[1, 2]", '{"responses": [1]}', '{"default": 3}', '{"responses": {"d": "\\"USD\\""}}', DEEP_JSON],
        ids=[
            "missing", "not-json", "not-object", "responses-not-object", "default-not-string", "queue-not-list",
            "nested-too-deeply",
        ],
    )
    def test_bad_replay_file_is_usage_error(self, runner, running_dir, tmp_path, content):
        replay = tmp_path / "replay.json"
        if content == "spec":
            replay.write_bytes((running_dir / "spec.yaml").read_bytes())
        elif content is not None:
            replay.write_text(content, encoding="utf-8")
        args = enrich_args(running_dir, tmp_path / "out.yaml")
        args[args.index("--replay-file") + 1] = str(replay)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output + result.stderr
        assert "--replay-file" in result.stderr
        assert not (tmp_path / "out.yaml").exists()

    @pytest.mark.parametrize(
        "out_name, extra",
        [
            ("nodir/out.yaml", ()),
            ("out.yaml", ("--records", "nodir/r.jsonl")),
            ("out.yaml", ("--manifest", "nodir/m.json")),
            ("out.yaml", ("--record-file", "nodir/rec.json")),
        ],
        ids=["spec", "records", "manifest", "record-file"],
    )
    def test_missing_output_dir_is_usage_error_before_any_call(
        self, runner, running_dir, tmp_path, replay_calls, out_name, extra
    ):
        extra = [str(tmp_path / e) if e.startswith("nodir/") else e for e in extra]
        result = runner.invoke(main, enrich_args(running_dir, tmp_path / out_name, *extra))
        assert result.exit_code == 2, result.output + result.stderr
        assert "output directory does not exist" in result.stderr
        assert replay_calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("enrich", ("--records", "out.yaml"), "--records and SPEC_OUT name the same file"),
            ("enrich", ("--manifest", "./out.yaml"), "--manifest and SPEC_OUT name the same file"),
            ("enrich", ("--record-file", "sub/../out.yaml"), "--record-file and SPEC_OUT name the same file"),
            ("enrich", ("--records", "r.jsonl", "--manifest", "r.jsonl"), "--manifest and --records name the same file"),
            ("enrich", ("--manifest", "out.yaml.records.jsonl"), "--manifest and --records name the same file"),
            ("enrich", ("--record-file", "out.yaml.manifest.json"), "--record-file and --manifest name the same file"),
            ("fuzz-prep", ("--record-file", "out.yaml"), "--record-file and SPEC_OUT name the same file"),
        ],
        ids=["records-spec", "manifest-spec", "record-file-spec", "records-manifest", "default-records",
             "default-manifest", "fuzz-prep"],
    )
    def test_outputs_naming_one_file_are_usage_error_before_any_call(
        self, runner, running_copy, replay_calls, command, extra, message
    ):
        (running_copy / "sub").mkdir()
        before = tree_bytes(running_copy)
        extra = [str(running_copy / e) if e.startswith(("out", "r.", "./", "sub/")) else e for e in extra]
        result = runner.invoke(main, enrich_args(running_copy, running_copy / "out.yaml", *extra, command=command))
        assert result.exit_code == 2, result.output + result.stderr
        assert message in result.stderr
        assert replay_calls == []
        assert tree_bytes(running_copy) == before

    @pytest.mark.parametrize(
        "spec_out, extra, message",
        [
            ("bank.jsonl", (), "SPEC_OUT and --bank name the same file"),
            ("out.yaml", ("--records", "bank.jsonl.index"), "--records and --bank's index name the same file"),
            ("out.yaml", ("--manifest", "replay.json"), "--manifest and --replay-file name the same file"),
            ("out.yaml", ("--record-file", "replay.json"), "--record-file and --replay-file name the same file"),
            ("out.yaml", ("--record-file", "run.cfg"), "--record-file and --config name the same file"),
        ],
        ids=["spec-bank", "records-index", "manifest-replay", "record-file-replay", "record-file-config"],
    )
    def test_output_over_an_input_is_usage_error_before_any_call(
        self, runner, running_copy, replay_calls, spec_out, extra, message
    ):
        (running_copy / "run.cfg").write_text("seed=0\n", encoding="utf-8")
        before = tree_bytes(running_copy)
        extra = [e if e.startswith("--") else str(running_copy / e) for e in extra]
        args = enrich_args(running_copy, running_copy / spec_out, *extra, "--config", str(running_copy / "run.cfg"))
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output + result.stderr
        assert message in result.stderr
        assert replay_calls == []
        assert tree_bytes(running_copy) == before

    @pytest.mark.parametrize("default", ["out.yaml.records.jsonl", "out.yaml.manifest.json"])
    def test_default_output_that_is_a_directory_is_usage_error_before_any_call(
        self, runner, running_dir, tmp_path, replay_calls, default
    ):
        (tmp_path / default).mkdir()
        result = runner.invoke(main, enrich_args(running_dir, tmp_path / "out.yaml"))
        assert result.exit_code == 2, result.output + result.stderr
        assert f"is a directory: {tmp_path / default}" in result.stderr
        assert replay_calls == []
        assert list(tmp_path.iterdir()) == [tmp_path / default]
        assert list((tmp_path / default).iterdir()) == []

    def test_spec_out_may_be_spec_in(self, runner, running_copy):
        elsewhere = running_copy / "out.yaml"
        assert runner.invoke(main, enrich_args(running_copy, elsewhere)).exit_code == 0
        spec = running_copy / "spec.yaml"
        result = runner.invoke(main, enrich_args(running_copy, spec))
        assert result.exit_code == 0, result.output + result.stderr
        assert spec.read_bytes() == elsewhere.read_bytes()

    @pytest.mark.parametrize("writer", ["write_atomic", "write_records", "write_manifest", "flush"])
    def test_failed_write_exits_one_naming_the_path_and_keeps_the_recorded_responses(
        self, runner, running_dir, tmp_path, monkeypatch, writer
    ):
        rec = tmp_path / "rec.json"
        failing = {
            "write_atomic": tmp_path / "out.yaml",
            "write_records": tmp_path / "out.yaml.records.jsonl",
            "write_manifest": tmp_path / "out.yaml.manifest.json",
            "flush": rec,
        }[writer]

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        if writer == "flush":
            monkeypatch.setattr(icicl.cli.RecordingBackend, "flush", no_space)
        else:
            monkeypatch.setattr(icicl.cli, writer, no_space)
        result = runner.invoke(main, enrich_args(running_dir, tmp_path / "out.yaml", "--record-file", str(rec)))
        assert result.exit_code == 1, result.output + result.stderr
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert result.stderr == f"Error: cannot write {failing}: [Errno 28] No space left on device\n"
        if writer != "flush":
            recorded = json.loads(rec.read_text(encoding="utf-8"))
            assert sum(len(texts) for texts in recorded["responses"].values()) == 11

    def test_spec_that_cannot_be_written_still_leaves_the_records_and_the_manifest(self, runner, running_dir, tmp_path):
        out = tmp_path / "out.yaml"
        (tmp_path / "out.yaml.tmp").mkdir()  # where the spec is written before it is renamed into place
        result = runner.invoke(main, enrich_args(running_dir, out))
        assert result.exit_code == 1, result.output + result.stderr
        assert result.stderr.startswith(f"Error: cannot write {out}: [Errno 21]")
        assert not out.exists()
        records = (tmp_path / "out.yaml.records.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["greedy"]["raw_text"] for line in records] == ["USD"]
        manifest = json.loads((tmp_path / "out.yaml.manifest.json").read_text(encoding="utf-8"))
        assert manifest["counts"]["enriched"] == 1

    def test_bank_truncated_while_enriching_exits_one_and_keeps_the_recorded_responses(self, running_dir, tmp_path):
        for name in ("bank.jsonl", "bank.jsonl.index"):
            shutil.copy(running_dir / name, tmp_path / name)
        rec = tmp_path / "rec.json"
        args = enrich_args(running_dir, tmp_path / "out.yaml", "--record-file", str(rec))
        args[args.index("--bank") + 1] = str(tmp_path / "bank.jsonl")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        # a read past the end of a mapped file could kill the process, so the run has one of its own
        result = subprocess.run(
            [sys.executable, "-c", TRUNCATE_AFTER_LOADING, *args], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 1, result.stderr
        assert re.fullmatch(
            r"Error: corrupt bank at line \d+: the bank file now ends at byte 100: it was truncated after loading\n",
            result.stderr,
        )
        assert json.loads(rec.read_text(encoding="utf-8"))["responses"] == {}  # no call was made
        assert not (tmp_path / "out.yaml").exists()

    def test_counting_backend_sees_every_call(self, runner, running_dir, tmp_path, replay_calls):
        result = runner.invoke(main, enrich_args(running_dir, tmp_path / "out.yaml"))
        assert result.exit_code == 0, result.output + result.stderr
        assert len(replay_calls) == 11  # one greedy and ten diverse

    def test_non_utf8_spec_is_a_clean_error(self, runner, running_dir, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_bytes((running_dir / "spec.yaml").read_bytes().replace(b"currency", b"curr\xffency", 1))
        args = enrich_args(running_dir, tmp_path / "out.yaml")
        args[1] = str(spec)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "not UTF-8" in result.stderr
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback

    def test_deeply_nested_spec_is_a_clean_error(self, runner, running_dir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(DEEP_JSON, encoding="utf-8")
        args = enrich_args(running_dir, tmp_path / "out.json")
        args[1] = str(spec)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "nested too deeply" in result.stderr
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback

    @pytest.mark.parametrize("fmt", ["json", "yaml"])
    @pytest.mark.parametrize("mode", ["doc", "fuzz"])
    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
    def test_spec_at_max_depth_is_enriched_and_deeper_is_a_clean_error(self, runner, running_dir, tmp_path, fmt, mode, depth):
        # the root and `info` are two levels, the lists below `x-deep` the rest
        deep = "[" * (depth - 2) + "1" + "]" * (depth - 2)
        if fmt == "yaml":
            text = (running_dir / "spec.yaml").read_text(encoding="utf-8").replace("info:\n", f"info:\n  x-deep: {deep}\n", 1)
        else:
            root = parse_document((running_dir / "spec.yaml").read_bytes()).root
            root["info"]["x-deep"] = 0
            text = json.dumps(root).replace('"x-deep": 0', f'"x-deep": {deep}')
        spec = tmp_path / f"spec.{fmt}"
        spec.write_text(text, encoding="utf-8")
        args = enrich_args(running_dir, tmp_path / f"out.{fmt}", "--mode", mode)
        args[1] = str(spec)
        result = runner.invoke(main, args)
        if depth > MAX_DEPTH:
            assert result.exit_code == 1
            assert f"{fmt.upper()} nested too deeply" in result.stderr
            assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
            return
        assert result.exit_code == 0, result.output + result.stderr
        assert "enriched 1/1" in result.output
        out = parse_document((tmp_path / f"out.{fmt}").read_bytes())
        assert out.fmt == fmt
        assert out.root["info"]["x-deep"] == parse_document(deep).root

    @pytest.mark.parametrize("fmt", ["json", "yaml"])
    def test_spec_with_lone_surrogate_exits_one_before_any_call(self, runner, running_dir, tmp_path, replay_calls, fmt):
        text = (running_dir / "spec.yaml").read_text(encoding="utf-8")
        if fmt == "yaml":
            text = text.replace("          description: Search", '          example: "\\ud800"\n          description: Search', 1)
        else:
            root = parse_document(text).root
            root["paths"]["/v2/currency/{currency}"]["get"]["parameters"][0]["example"] = "\ud800"
            text = json.dumps(root)
        spec = tmp_path / f"spec.{fmt}"
        spec.write_text(text, encoding="utf-8")
        args = enrich_args(running_dir, tmp_path / f"out.{fmt}")
        args[1] = str(spec)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "U+D800, a surrogate UTF-8 cannot encode" in result.stderr
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert replay_calls == []
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("mode", ["doc", "fuzz"])
    def test_recursive_array_schema_is_enriched(self, runner, running_dir, tmp_path, mode):
        spec = tmp_path / "spec.yaml"
        spec.write_text(
            (running_dir / "spec.yaml").read_text(encoding="utf-8").replace(
                "schema:\n            type: string\n", "schema: {$ref: '#/components/schemas/A'}\n", 1
            )
            + "components:\n  schemas:\n    A: {type: array, items: {$ref: '#/components/schemas/A'}}\n",
            encoding="utf-8",
        )
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps({"default": '["USD", "EUR"]', "responses": {}}), encoding="utf-8")
        args = enrich_args(running_dir, tmp_path / "out.yaml", "--mode", mode)
        args[1] = str(spec)
        args[args.index("--replay-file") + 1] = str(replay)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output + result.stderr
        assert "enriched 1/1" in result.output
        (line,) = (tmp_path / "out.yaml.records.jsonl").read_text(encoding="utf-8").splitlines()
        declared = json.loads(line)["parameter"]["declared_type"]
        assert (declared["kind"], declared["item_kind"]["kind"]) == ("array", "unknown")

    def test_completion_over_digit_limit_is_text(self, runner, running_dir, tmp_path):
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps({"default": "1" * 5000}), encoding="utf-8")
        args = enrich_args(running_dir, tmp_path / "out.yaml")
        args[args.index("--replay-file") + 1] = str(replay)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output + result.stderr
        (line,) = (tmp_path / "out.yaml.records.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["greedy"] == {"raw_text": "1" * 5000, "parsed_kind": "string"}
        assert (tmp_path / "out.yaml.manifest.json").exists()

    def test_remote_embedder_without_endpoint_is_usage_error(self, runner, running_dir, tmp_path):
        result = runner.invoke(
            main,
            enrich_args(running_dir, tmp_path / "out.yaml", "--embedder", "remote"),
            env={"ICICL_EMBED_ENDPOINT": None},
        )
        assert result.exit_code == 2
        assert "--embed-endpoint" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_empty_overload_suffix_is_usage_error_before_any_call(self, runner, running_dir, tmp_path):
        rec = tmp_path / "rec.json"
        result = runner.invoke(
            main,
            enrich_args(
                running_dir, tmp_path / "out.yaml", "--overload-suffix", "", "--record-file", str(rec),
                command="fuzz-prep",
            ),
        )
        assert result.exit_code == 2
        assert "overload_suffix" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_recorded_responses_survive_a_failed_run(self, runner, running_dir, tmp_path, monkeypatch):
        # writing the fuzz variant fails after all 11 calls
        def collide(doc, plan, overload_suffix):
            raise PathCollision("/v2/currency/{currency}__icicl_orig")

        monkeypatch.setattr(icicl.pipeline, "enhance_fuzz", collide)
        rec = tmp_path / "rec.json"
        args = enrich_args(running_dir, tmp_path / "out.yaml", "--record-file", str(rec), command="fuzz-prep")
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "__icicl_orig" in result.stderr
        recorded = json.loads(rec.read_text(encoding="utf-8"))
        replayed = json.loads((running_dir / "replay.json").read_text(encoding="utf-8"))
        assert recorded["responses"] == replayed["responses"]  # the greedy response and the 10 diverse
        assert sum(len(texts) for texts in recorded["responses"].values()) == 11

    @pytest.mark.parametrize(
        "extra, env",
        [
            (("--timeout-ms", "0"), {}),
            (("--timeout-ms", "-5"), {}),
            ((), {"ICICL_LLM_TIMEOUT_MS": "0"}),
        ],
        ids=["flag-zero", "flag-negative", "env-zero"],
    )
    def test_timeout_below_one_is_usage_error_before_any_call(self, runner, running_dir, tmp_path, extra, env):
        args = [
            "enrich", str(running_dir / "spec.yaml"), str(tmp_path / "out.yaml"),
            "--bank", str(running_dir / "bank.jsonl"),
            # nothing listens on port 1; a call would fail, not a usage check
            "--endpoint", "http://127.0.0.1:1/never",
            "--record-file", str(tmp_path / "rec.json"),
            *extra,
        ]
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2, result.output + result.stderr
        assert "timeout_ms" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def stub_args(self, running_dir, tmp_path, counting_stub):
        """An `enrich` run whose completions would go to `counting_stub`."""
        return [
            "enrich", str(running_dir / "spec.yaml"), str(tmp_path / "out.yaml"),
            "--bank", str(running_dir / "bank.jsonl"),
            "--endpoint", counting_stub.endpoint,
            "--record-file", str(tmp_path / "rec.json"),
        ]

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_timeout_over_a_day_is_usage_error_before_any_call(self, runner, running_dir, tmp_path, counting_stub, source):
        args = self.stub_args(running_dir, tmp_path, counting_stub)
        too_long = "10000000000000"  # overflows a socket timeout
        env = {"ICICL_LLM_TIMEOUT_MS": too_long if source == "env" else None}
        if source == "flag":
            args += ["--timeout-ms", too_long]
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2, result.output + result.stderr
        assert "timeout_ms must be between 1 and 86400000" in result.stderr
        assert counting_stub.calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "source, key",
        [("flag", "a\nb"), ("flag", "κλειδί"), ("env", "abc\r"), ("config", "κλειδί"), ("config", "ab\u2028cd")],
        ids=["flag-LF", "flag-non-ASCII", "env-CR", "config-non-ASCII", "config-U+2028"],
    )
    def test_api_key_http_cannot_send_is_usage_error_before_any_call(self, runner, running_dir, tmp_path, counting_stub, key, source):
        args = self.stub_args(running_dir, tmp_path, counting_stub)
        env = {"ICICL_LLM_API_KEY": key if source == "env" else None}
        made = []
        if source == "flag":
            args += ["--api-key", key]
        elif source == "config":
            config = tmp_path / "icicl.cfg"
            config.write_text(f'api_key = "{key}"\n', encoding="utf-8")
            args += ["--config", str(config)]
            made.append(config)
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2, result.output + result.stderr
        assert "api_key must be printable ASCII" in result.stderr and "endpoint" not in result.stderr
        assert counting_stub.calls == []
        assert list(tmp_path.iterdir()) == made

    def test_nan_context_temperature_is_usage_error_before_any_call(self, runner, running_dir, tmp_path):
        config = tmp_path / "icicl.cfg"
        config.write_text("context_temperature = nan\n", encoding="utf-8")
        args = [
            "enrich", str(running_dir / "spec.yaml"), str(tmp_path / "out.yaml"),
            "--bank", str(running_dir / "bank.jsonl"),
            # nothing listens on port 1; a call would fail, not a usage check
            "--endpoint", "http://127.0.0.1:1/never",
            "--record-file", str(tmp_path / "rec.json"),
            "--config", str(config),
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output + result.stderr
        assert "context_temperature" in result.stderr
        assert list(tmp_path.iterdir()) == [config]

    def test_missing_bank_is_usage_error(self, runner, running_dir, tmp_path):
        result = runner.invoke(
            main, ["enrich", str(running_dir / "spec.yaml"), str(tmp_path / "out.yaml")]
        )
        assert result.exit_code == 2

    def test_bad_mode_is_usage_error(self, runner, running_dir, tmp_path):
        result = runner.invoke(
            main, enrich_args(running_dir, tmp_path / "out.yaml", "--mode", "both")
        )
        assert result.exit_code == 2


class TestConfigLayers:
    def write_config(self, tmp_path):
        path = tmp_path / "icicl.cfg"
        path.write_text("endpoint = http://file.example/v1\nseed = 7\n", encoding="utf-8")
        return path

    def manifest_config(self, tmp_path):
        return json.loads(
            (tmp_path / "out.yaml.manifest.json").read_text(encoding="utf-8")
        )["config"]

    def run(self, runner, running_dir, tmp_path, *extra, env=None):
        return runner.invoke(
            main,
            enrich_args(running_dir, tmp_path / "out.yaml", *extra),
            env=env or {},
        )

    def test_file_values_apply(self, runner, running_dir, tmp_path):
        config = self.write_config(tmp_path)
        result = self.run(runner, running_dir, tmp_path, "--config", str(config))
        assert result.exit_code == 0, result.output + result.stderr
        snapshot = self.manifest_config(tmp_path)
        assert snapshot["endpoint"] == "http://file.example/v1"
        assert snapshot["seed"] == 0  # --seed 0 on the command line beats the file

    def test_env_beats_file(self, runner, running_dir, tmp_path):
        config = self.write_config(tmp_path)
        result = self.run(
            runner, running_dir, tmp_path, "--config", str(config),
            env={"ICICL_LLM_ENDPOINT": "http://env.example/v1"},
        )
        assert result.exit_code == 0, result.output + result.stderr
        assert self.manifest_config(tmp_path)["endpoint"] == "http://env.example/v1"

    def test_cli_beats_env(self, runner, running_dir, tmp_path):
        result = self.run(
            runner, running_dir, tmp_path, "--endpoint", "http://cli.example/v1",
            env={"ICICL_LLM_ENDPOINT": "http://env.example/v1"},
        )
        assert result.exit_code == 0, result.output + result.stderr
        assert self.manifest_config(tmp_path)["endpoint"] == "http://cli.example/v1"

    def test_seed_from_file_when_not_passed(self, runner, running_dir, tmp_path):
        # same as the standard args but without --seed
        config = self.write_config(tmp_path)
        args = [a for a in enrich_args(running_dir, tmp_path / "out.yaml") if a != "--seed" and a != "0"]
        runner.invoke(main, [*args, "--config", str(config)])
        assert self.manifest_config(tmp_path)["seed"] == 7

    def test_mode_from_file_applies(self, runner, running_dir, tmp_path):
        config = tmp_path / "icicl.cfg"
        config.write_text("mode = fuzz\n", encoding="utf-8")
        result = self.run(runner, running_dir, tmp_path, "--config", str(config))
        assert result.exit_code == 0, result.output + result.stderr
        assert self.manifest_config(tmp_path)["mode"] == "fuzz"

    def test_cli_mode_beats_file(self, runner, running_dir, tmp_path):
        config = tmp_path / "icicl.cfg"
        config.write_text("mode = fuzz\n", encoding="utf-8")
        result = self.run(runner, running_dir, tmp_path, "--config", str(config), "--mode", "doc")
        assert result.exit_code == 0, result.output + result.stderr
        assert self.manifest_config(tmp_path)["mode"] == "doc"

    def test_unknown_config_key_rejected(self, runner, running_dir, tmp_path):
        config = tmp_path / "icicl.cfg"
        config.write_text("warp_speed = 9\n", encoding="utf-8")
        result = self.run(runner, running_dir, tmp_path, "--config", str(config))
        assert result.exit_code == 2
        assert "unknown config key" in result.stderr

    def test_bad_env_value_rejected(self, runner, running_dir, tmp_path):
        result = self.run(
            runner, running_dir, tmp_path, env={"ICICL_LLM_TIMEOUT_MS": "soon"}
        )
        assert result.exit_code == 2


_FIELD_TYPES = get_type_hints(RunConfig)
_TYPED_SAMPLES = {int: ("3", 3), float: ("0.25", 0.25), bool: ("yes", True)}
TYPED_FIELDS = [f.name for f in fields(RunConfig) if _FIELD_TYPES[f.name] in _TYPED_SAMPLES]


def test_typed_fields_cover_the_tuning_knobs():
    assert set(TYPED_FIELDS) >= {
        "timeout_ms", "seed", "shots", "contexts", "parallelism",
        "diverse_temperature", "context_temperature", "include_trivial",
    }


@pytest.mark.parametrize("key", TYPED_FIELDS)
def test_config_file_coerces_every_typed_field(tmp_path, key):
    kind = _FIELD_TYPES[key]
    text, want = _TYPED_SAMPLES[kind]
    path = tmp_path / "icicl.cfg"
    path.write_text(f"{key} = {text}\n", encoding="utf-8")
    value = getattr(build_run_config(str(path), {}), key)
    assert type(value) is kind and value == want
    path.write_text(f"{key} = not-a-{kind.__name__}\n", encoding="utf-8")
    with pytest.raises(click.UsageError, match=key):
        build_run_config(str(path), {})


class TestEval:
    @pytest.fixture()
    def records_file(self, runner, running_dir, tmp_path):
        out = tmp_path / "out.yaml"
        with EmbedServer() as server:
            result = runner.invoke(
                main,
                enrich_args(
                    running_dir, out, "--embedder", "remote", "--embed-endpoint", server.endpoint
                ),
            )
        assert result.exit_code == 0, result.output + result.stderr
        return tmp_path / "out.yaml.records.jsonl"

    def test_summary_line(self, runner, records_file):
        result = runner.invoke(main, ["eval", str(records_file)])
        assert result.exit_code == 0, result.output + result.stderr
        assert result.output.startswith(
            "records 1  type 100.0%  unique 100.0%  both 100.0%  div "
        )
        assert "correct" not in result.output

    def test_csv_and_json_outputs(self, runner, records_file, tmp_path):
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["eval", str(records_file), "--csv", str(csv_path), "--json", str(json_path)],
        )
        assert result.exit_code == 0
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "api_name,param_name,source_pointer,type_correct,unique,both,diversity,correct_label"
        data = json.loads(json_path.read_text(encoding="utf-8"))
        assert data["aggregates"]["records"] == 1
        assert data["embedding_provider"] == "trigram-256"

    def test_labels_add_correct_pct(self, runner, records_file, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "api_name,source_pointer,correct\n"
            'rest-countries,/paths/~1v2~1currency~1{currency}/get/parameters/0,1\n',
            encoding="utf-8",
        )
        result = runner.invoke(main, ["eval", str(records_file), "--labels", str(labels)])
        assert result.exit_code == 0, result.output + result.stderr
        assert result.output.rstrip().endswith("correct 100.0%")

    def test_empty_records_exit_one(self, runner, tmp_path):
        empty = tmp_path / "records.jsonl"
        empty.write_text("", encoding="utf-8")
        result = runner.invoke(main, ["eval", str(empty)])
        assert result.exit_code == 1
        assert "empty" in result.stderr

    def test_wrong_typed_record_field_exits_one(self, runner, records_file):
        line = json.loads(records_file.read_text(encoding="utf-8"))
        line["greedy"]["raw_text"] = 5
        records_file.write_text(json.dumps(line) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["eval", str(records_file)])
        assert result.exit_code == 1
        assert "unreadable record at line 1: raw_text must be a string" in result.stderr
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback

    def test_missing_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["eval", str(tmp_path / "absent.jsonl")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_missing_output_dir_is_usage_error_before_scoring(self, runner, records_file, tmp_path, monkeypatch, flag):
        scored = spy(monkeypatch, "build_report")
        result = runner.invoke(main, ["eval", str(records_file), flag, str(tmp_path / "nodir" / "report")])
        assert result.exit_code == 2, result.output + result.stderr
        assert "output directory does not exist" in result.stderr
        assert scored == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--csv", "report", "--json", "report"), "--json and --csv name the same file"),
            (("--json", "out.yaml.records.jsonl"), "--json and RECORDS name the same file"),
            (("--csv", "labels.csv"), "--csv and --labels name the same file"),
        ],
        ids=["csv-json", "json-records", "csv-labels"],
    )
    def test_output_over_another_file_is_usage_error_before_scoring(
        self, runner, records_file, tmp_path, monkeypatch, flags, message
    ):
        (tmp_path / "labels.csv").write_text("api_name,source_pointer,correct\n", encoding="utf-8")
        before = tree_bytes(tmp_path)
        scored = spy(monkeypatch, "build_report")
        flags = [f if f.startswith("--") else str(tmp_path / f) for f in flags]
        result = runner.invoke(main, ["eval", str(records_file), "--labels", str(tmp_path / "labels.csv"), *flags])
        assert result.exit_code == 2, result.output + result.stderr
        assert message in result.stderr
        assert scored == []
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("writer, flag", [("write_report_csv", "--csv"), ("write_report_json", "--json")])
    def test_failed_write_exits_one_naming_the_path(self, runner, records_file, tmp_path, monkeypatch, writer, flag):
        def no_space(report, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(icicl.cli, writer, no_space)
        out = tmp_path / "report"
        result = runner.invoke(main, ["eval", str(records_file), flag, str(out)])
        assert result.exit_code == 1, result.output + result.stderr
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"Error: cannot write {out}: [Errno 28] No space left on device\n"

    def test_remote_embedder_without_endpoint_is_usage_error(self, runner, records_file):
        result = runner.invoke(
            main, ["eval", str(records_file), "--embedder", "remote"], env={"ICICL_EMBED_ENDPOINT": None}
        )
        assert result.exit_code == 2
        assert "--embed-endpoint" in result.stderr

    def test_remote_embedder_endpoint_from_env(self, runner, records_file):
        with EmbedServer() as server:
            result = runner.invoke(
                main, ["eval", str(records_file), "--embedder", "remote"],
                env={"ICICL_EMBED_ENDPOINT": server.endpoint},
            )
        assert result.exit_code == 0, result.output + result.stderr
        assert result.output.startswith("records 1  ")


@pytest.fixture()
def counting_stub():
    """A local service that records every request it gets."""
    calls = []

    def respond(headers, payload):
        calls.append(payload)
        return 200, json.dumps({"text": '"USD"'})

    with local_server(respond) as server:
        server.calls = calls
        yield server


def test_fuzz_overload_collision_fails_before_any_call_and_writes_the_record_file(runner, running_dir, tmp_path, counting_stub):
    tree = {
        "openapi": "3.1.0",
        "info": {"title": "Clash", "version": "1"},
        "paths": {
            "/a": {"get": {"operationId": "getA", "parameters": [{"name": "currency", "in": "query", "schema": {"type": "string"}}]}},
            "/a__icicl_orig": {"get": {"operationId": "other"}},
        },
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tree), encoding="utf-8")
    out, record = tmp_path / "out.json", tmp_path / "rec.json"
    args = ["fuzz-prep", str(spec), str(out), "--bank", str(running_dir / "bank.jsonl"), "--endpoint", counting_stub.endpoint]
    result = runner.invoke(main, [*args, "--record-file", str(record)])
    assert result.exit_code == 1, result.output + result.stderr
    assert "overload path already present: '/a__icicl_orig'" in result.stderr
    assert counting_stub.calls == []
    assert json.loads(record.read_text(encoding="utf-8")) == {"default": "", "responses": {}}
    assert sorted(tmp_path.iterdir()) == [record, spec]


BAD_ENDPOINTS = {
    "host-port-no-scheme": "localhost:{port}/v1/complete",
    "ip-port-no-scheme": "127.0.0.1:{port}/",
    "ftp": "ftp://127.0.0.1:{port}/",
    "no-host": "http:///v1/complete",
    "bad-port": "http://127.0.0.1:port/",
}


def test_enrich_refuses_a_format_1_bank_before_any_call(runner, running_dir, running_bank, tmp_path, counting_stub):
    bank = tmp_path / "bank.jsonl"
    write_format_1_bank(bank, running_bank, index_version=2)
    made = sorted(tmp_path.iterdir())
    args = ["enrich", str(running_dir / "spec.yaml"), str(tmp_path / "out.yaml"), "--bank", str(bank)]
    result = runner.invoke(main, [*args, "--endpoint", counting_stub.endpoint])
    assert result.exit_code == 1, result.output + result.stderr
    assert "corrupt bank at line 1: bank format 1 is not 2; run `icicl mine` again" in result.stderr
    assert counting_stub.calls == []
    assert sorted(tmp_path.iterdir()) == made


class TestEndpointUrls:
    """An endpoint that is not an http(s) URL with a host is a usage error before any call."""

    def args(self, running_dir, tmp_path, command, option, url=None):
        """A `command` run that needs the service behind `option`; `url` is passed as it, if given."""
        endpoint = [] if url is None else [option, url]
        if command == "eval":
            return ["eval", str(running_dir / "outputs" / "doc.yaml.records.jsonl"), "--embedder", "remote", *endpoint]
        args = [command, str(running_dir / "spec.yaml"), str(tmp_path / "out.yaml"), "--bank", str(running_dir / "bank.jsonl")]
        if option == "--endpoint":
            return [*args, "--record-file", str(tmp_path / "rec.json"), *endpoint]
        replay = ["--backend", "replay", "--replay-file", str(running_dir / "replay.json")]
        return [*args, *replay, "--embedder", "remote", *endpoint]

    @pytest.mark.parametrize("bad", BAD_ENDPOINTS.values(), ids=BAD_ENDPOINTS.keys())
    @pytest.mark.parametrize(
        "command, option",
        [("enrich", "--endpoint"), ("fuzz-prep", "--endpoint"), ("enrich", "--embed-endpoint"),
         ("fuzz-prep", "--embed-endpoint"), ("eval", "--embed-endpoint")],
    )
    def test_bad_flag(self, runner, running_dir, tmp_path, counting_stub, command, option, bad):
        url = bad.format(port=counting_stub.server_port)
        result = runner.invoke(main, self.args(running_dir, tmp_path, command, option, url))
        assert result.exit_code == 2, result.output + result.stderr
        assert f"endpoint {url!r} is not an http:// or https:// URL with a host" in result.stderr
        assert counting_stub.calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, key, source",
        [("enrich", "endpoint", "env"), ("enrich", "endpoint", "config"), ("enrich", "embed_endpoint", "env"),
         ("enrich", "embed_endpoint", "config"), ("eval", "embed_endpoint", "env")],
    )
    def test_bad_env_or_config_value(self, runner, running_dir, tmp_path, counting_stub, command, key, source):
        url = BAD_ENDPOINTS["host-port-no-scheme"].format(port=counting_stub.server_port)
        args = self.args(running_dir, tmp_path, command, "--" + key.replace("_", "-"))
        env = {name: None for name in icicl.cli._ENV_KEYS.values()}
        made = []
        if source == "env":
            env[icicl.cli._ENV_KEYS[key]] = url
        else:
            config = tmp_path / "icicl.cfg"
            config.write_text(f"{key} = {url}\n", encoding="utf-8")
            args += ["--config", str(config)]
            made.append(config)
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2, result.output + result.stderr
        assert "is not an http:// or https:// URL with a host" in result.stderr
        assert counting_stub.calls == []
        assert list(tmp_path.iterdir()) == made


def test_verbose_flag_accepted(runner, corpus_dir, tmp_path):
    result = runner.invoke(main, ["-v", "mine", str(corpus_dir), "-o", str(tmp_path / "b.jsonl")])
    assert result.exit_code == 0


def readme_config_keys():
    """The rows of the README's config key table: (key, flag column)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| config key | flag |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    return [re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups() for row in table.splitlines()]


def test_readme_config_keys_are_the_run_config_fields_with_their_flags():
    rows = readme_config_keys()
    assert [key for key, _flag in rows] == [f.name for f in fields(RunConfig)]
    options = {opt: param.name for param in main.commands["enrich"].params for opt in param.opts}
    for key, flag in rows:
        if flag.startswith("config file only"):
            assert key not in options.values()
        else:
            assert options[re.match(r"`(--[\w-]+)`", flag)[1]] == key
