"""Command line behavior: subcommands, config layering, exit codes."""

import json
import re
from dataclasses import fields
from typing import get_type_hints

import click
import pytest
from click.testing import CliRunner

from icicl.bank import load_bank
from icicl.cli import build_run_config, main
from icicl.document import parse_document
from icicl.pipeline import RunConfig

from support import EmbedServer, validate_openapi


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


class TestEnrich:
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

    def test_recorded_responses_survive_a_failed_run(self, runner, running_dir, tmp_path):
        # the overload twin's path is taken, so fuzz mode fails after all 11 calls
        doc = parse_document((running_dir / "spec.yaml").read_bytes())
        doc.root["paths"]["/v2/currency/{currency}__icicl_orig"] = {}
        spec = tmp_path / "spec.yaml"
        spec.write_bytes(doc.serialize())
        rec = tmp_path / "rec.json"
        args = enrich_args(running_dir, tmp_path / "out.yaml", "--record-file", str(rec), command="fuzz-prep")
        args[1] = str(spec)
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

    def test_missing_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["eval", str(tmp_path / "absent.jsonl")])
        assert result.exit_code == 2

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


def test_verbose_flag_accepted(runner, corpus_dir, tmp_path):
    result = runner.invoke(main, ["-v", "mine", str(corpus_dir), "-o", str(tmp_path / "b.jsonl")])
    assert result.exit_code == 0
