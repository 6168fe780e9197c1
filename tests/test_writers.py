"""Artifact writers: every one replaces its target whole and leaves no temp file."""

from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from icicl.backends import RecordingBackend, ReplayBackend
from icicl.bank import save_bank
from icicl.cli import main
from icicl.metrics import build_report, write_records, write_report_csv, write_report_json
from icicl.model import write_atomic
from icicl.pipeline import RunConfig, enrich_document, write_manifest

from support import FixtureEmbedder

STALE = b"stale bytes from an earlier run\n" * 4


@pytest.fixture()
def run(running_dir, running_doc, running_bank, tmp_path):
    """One replayed run of the running example, with everything the writers need."""
    recording = RecordingBackend(ReplayBackend(running_dir / "replay.json"), tmp_path / "unused.json")
    config = RunConfig(mode="fuzz", backend="replay", embedder="remote")
    result = enrich_document(running_doc, running_bank, config, recording, FixtureEmbedder())
    report = build_report(result.records, FixtureEmbedder())
    return SimpleNamespace(bank=running_bank, result=result, report=report, recording=recording)


def flush_to(recording, path):
    recording.out_path = path
    recording.flush()


WRITERS = {
    "save_bank": lambda run, path: save_bank(run.bank, path),
    "write_records": lambda run, path: write_records(run.result.records, path),
    "write_report_json": lambda run, path: write_report_json(run.report, path),
    "write_report_csv": lambda run, path: write_report_csv(run.report, path),
    "write_manifest": lambda run, path: write_manifest(run.result.manifest, path),
    "RecordingBackend.flush": lambda run, path: flush_to(run.recording, path),
}


def assert_no_temp_files(*dirs):
    for d in dirs:
        assert list(d.glob("*.tmp")) == []


@pytest.mark.parametrize("name", list(WRITERS))
def test_writer_replaces_existing_file(run, tmp_path, name):
    write = WRITERS[name]
    fresh_dir, stale_dir = tmp_path / "fresh", tmp_path / "stale"
    fresh_dir.mkdir()
    stale_dir.mkdir()
    fresh, target = fresh_dir / "artifact", stale_dir / "artifact"
    target.write_bytes(STALE)

    write(run, fresh)
    write(run, target)

    assert fresh.read_bytes() and fresh.read_bytes() != STALE
    assert target.read_bytes() == fresh.read_bytes()
    assert_no_temp_files(fresh_dir, stale_dir)


def test_cli_outputs_replace_existing_files(running_dir, tmp_path):
    names = ["out.yaml", "out.yaml.records.jsonl", "out.yaml.manifest.json", "rec.json"]

    def enrich_into(directory):
        args = [
            "enrich", str(running_dir / "spec.yaml"), str(directory / "out.yaml"),
            "--bank", str(running_dir / "bank.jsonl"),
            "--backend", "replay", "--replay-file", str(running_dir / "replay.json"),
            "--record-file", str(directory / "rec.json"),
            "--records", str(directory / names[1]), "--manifest", str(directory / names[2]),
        ]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output + result.stderr

    fresh_dir, stale_dir = tmp_path / "fresh", tmp_path / "stale"
    fresh_dir.mkdir()
    stale_dir.mkdir()
    for name in names:
        (stale_dir / name).write_bytes(STALE)

    enrich_into(fresh_dir)
    enrich_into(stale_dir)

    for name in names:
        # the manifest names the run's own paths, which differ only in their directory
        new = (stale_dir / name).read_text(encoding="utf-8").replace(str(stale_dir), "DIR")
        assert new == (fresh_dir / name).read_text(encoding="utf-8").replace(str(fresh_dir), "DIR"), name
        assert new.encode("utf-8") != STALE
    assert sorted(p.name for p in stale_dir.iterdir()) == sorted(names)
    assert_no_temp_files(fresh_dir, stale_dir)


@pytest.mark.parametrize(
    "data",
    ["grüße → €\n", "grüße → €\n".encode("utf-8"), iter([b"gr\xc3", b"\xbc\xc3\x9fe \xe2\x86\x92 \xe2\x82\xac\n"])],
    ids=["str", "bytes", "chunks"],
)
def test_write_atomic_encodes_text_as_utf8(tmp_path, data):
    path = tmp_path / "a.txt"
    path.write_bytes(STALE)
    write_atomic(str(path), data)
    assert path.read_bytes() == "grüße → €\n".encode("utf-8")
    assert_no_temp_files(tmp_path)


def test_write_atomic_failing_midway_keeps_the_target_and_removes_the_temp_file(tmp_path):
    def chunks():
        yield b"half of a new file\n"
        raise ValueError("the producer failed")

    path = tmp_path / "a.txt"
    path.write_bytes(STALE)
    with pytest.raises(ValueError, match="the producer failed"):
        write_atomic(path, chunks())
    assert path.read_bytes() == STALE
    assert_no_temp_files(tmp_path)
