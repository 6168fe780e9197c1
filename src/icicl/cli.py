"""Command line front end: mine, enrich, fuzz-prep, eval."""

from __future__ import annotations

import logging
import os
import re
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, get_type_hints

import click

from .backends import DEFAULT_TIMEOUT_MS, BadApiKey, GenerationBackend, HttpBackend, RecordingBackend, ReplayBackend
from .bank import DEFAULT_INCLUDE, MiningStats, check_include, index_path, load_bank, matched_files, mine_bank, save_bank
from .document import ApiDocument, parse_document
from .embeddings import EmbeddingProvider, RemoteEmbedder, TrigramEmbedder
from .errors import IciclError
from .metrics import (
    build_report,
    format_summary,
    ingest_labels,
    read_records,
    write_records,
    write_report_csv,
    write_report_json,
)
from .model import write_atomic
from .pipeline import MAX_TIMEOUT_MS, RunConfig, enrich_document, write_manifest

log = logging.getLogger(__name__)

# RunConfig field name -> declared type; the coercions and the known config keys.
_FIELD_TYPES = get_type_hints(RunConfig)

# RunConfig field name -> the environment variable that sets it
_ENV_KEYS = {
    "endpoint": "ICICL_LLM_ENDPOINT",
    "api_key": "ICICL_LLM_API_KEY",
    "timeout_ms": "ICICL_LLM_TIMEOUT_MS",
    "embed_endpoint": "ICICL_EMBED_ENDPOINT",
}


def load_config_file(path: str | Path) -> dict[str, str]:
    """key=value lines; '#' starts a comment outside a "quoted value"; blank lines are ignored."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        quoted = re.fullmatch(r'"(.*?)"\s*(?:#.*)?', raw.split("=", 1)[1].strip())
        values[key.strip()] = quoted[1] if quoted else value.strip()
    return values


def _coerce(key: str, value: Any) -> Any:
    kind = _FIELD_TYPES[key]
    if not isinstance(value, str) or kind is str:
        return value
    if kind is bool:
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise click.UsageError(f"bad boolean for {key}: {value!r}")
    try:
        return kind(value)
    except ValueError as exc:
        raise click.UsageError(f"bad value for {key}: {value!r}") from exc


def build_run_config(config_path: str | None, cli_values: dict[str, Any]) -> RunConfig:
    """Merge the four setting layers; command line wins, then env, file, defaults."""
    merged: dict[str, Any] = {}
    if config_path:
        try:
            file_values = load_config_file(config_path)
        except (OSError, ValueError) as exc:
            raise click.UsageError(str(exc)) from exc
        for key, value in file_values.items():
            if key not in _FIELD_TYPES:
                raise click.UsageError(f"unknown config key: {key}")
            merged[key] = _coerce(key, value)
    for key, env_name in _ENV_KEYS.items():
        env_value = os.environ.get(env_name)
        if env_value is not None:
            merged[key] = _coerce(key, env_value)
    for key, value in cli_values.items():
        if value is not None:
            merged[key] = _coerce(key, value)
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc


def _endpoint(service: str, key: str, url: str, client: Callable[[str], Any]) -> Any:
    """`client(url)`; a missing URL, one the client cannot dial, or an API key it cannot send is a usage error before any call."""
    flag = "--" + key.replace("_", "-")
    if not url:
        raise click.UsageError(f"no {service} endpoint; pass {flag} or set {_ENV_KEYS[key]}")
    try:
        return client(url)
    except BadApiKey as exc:
        raise click.UsageError(str(exc)) from exc
    except ValueError as exc:
        raise click.UsageError(f"{service} endpoint {url!r} is not an http:// or https:// URL with a host") from exc


def _make_backend(config: RunConfig) -> GenerationBackend:
    backend: GenerationBackend
    if config.backend == "replay":
        if not config.replay_file:
            raise click.UsageError("--backend replay needs --replay-file")
        try:
            backend = ReplayBackend(config.replay_file)
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"unreadable --replay-file {config.replay_file}: {exc}") from exc
    else:
        backend = _endpoint("completion", "endpoint", config.endpoint, lambda url: HttpBackend(url, config.api_key or None, config.timeout_ms))
    if config.record_file:
        backend = RecordingBackend(backend, config.record_file)
    return backend


def _make_embedder(name: str, endpoint: str) -> EmbeddingProvider:
    if name == "remote":
        return _endpoint("embedding", "embed_endpoint", endpoint, RemoteEmbedder)
    return TrigramEmbedder()


def _read_document(path: Path) -> ApiDocument:
    hint = "yaml" if path.suffix.lower() in (".yaml", ".yml") else None
    return parse_document(path.read_bytes(), format_hint=hint)


def _check_outputs(outputs: dict[str, str | Path | None], inputs: dict[str, str | Path | None]) -> None:
    """Reject, before any work is done, an output whose directory does not
    exist, one that is a directory, and one that names the same file as an
    input or as another output. Both map a name for the user to a path.
    """
    named = {Path(path).resolve(): name for name, path in inputs.items() if path}
    for name, path in outputs.items():
        if not path:
            continue
        path = Path(path)
        if not path.parent.is_dir():
            raise click.UsageError(f"output directory does not exist: {path.parent}")
        if path.is_dir():
            raise click.UsageError(f"{name} is a directory: {path}")
        other = named.setdefault(path.resolve(), name)
        if other != name:
            raise click.UsageError(f"{name} and {other} name the same file: {path}")


@contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """End the command (exit 1) on an OSError while writing `path`, naming both."""
    try:
        yield
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}") from exc


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Log retrieval and backend chatter.")
def main(verbose: bool) -> None:
    """Enrich OpenAPI parameter docs with generated examples."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@main.command()
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False))
@click.option("-o", "--out", "out_path", required=True, type=click.Path(dir_okay=False), help="Bank file to write.")
@click.option(
    "--include",
    "includes",
    multiple=True,
    help="Filename glob to mine (repeatable); defaults to *.json, *.yaml, *.yml.",
)
def mine(corpus_dir: str, out_path: str, includes: tuple[str, ...]) -> None:
    """Build a parameter bank from a directory of API descriptions."""
    for pattern in includes:
        try:
            check_include(pattern)
        except ValueError as exc:
            raise click.UsageError(f"--include {exc}") from exc
    include_filter = includes or DEFAULT_INCLUDE
    corpus = Path(corpus_dir)
    _check_outputs(
        {"-o": out_path, "-o's index": index_path(out_path)},
        {f"mined file {p.relative_to(corpus).as_posix()}": p for p in matched_files(corpus, include_filter)},
    )
    stats = MiningStats()
    try:
        bank = mine_bank(corpus, include_filter=include_filter, stats=stats)
        with _writing(out_path):
            save_bank(bank, out_path)
    except IciclError as exc:
        raise click.ClickException(str(exc)) from exc
    log.info("parsed %d files, skipped %d", stats.files_parsed, stats.files_skipped)
    click.echo(f"parameters: {stats.parameters_seen}, with examples: {stats.parameters_with_examples}")
    click.echo(f"source digest {bank.source_digest}")


_ENRICH_OPTIONS = [
    click.option("--bank", "bank_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Parameter bank from `icicl mine`."),
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), help="key=value settings file."),
    click.option("--backend", type=click.Choice(["http", "replay"]), default=None, help="Completion source."),
    click.option("--endpoint", default=None, help="Completion endpoint URL (http backend)."),
    click.option("--api-key", default=None, help="Bearer token for the completion endpoint."),
    click.option("--timeout-ms", type=int, default=None, help=f"Per-request timeout in milliseconds, from 1 to {MAX_TIMEOUT_MS} (one day).  [default: {DEFAULT_TIMEOUT_MS}]"),
    click.option("--replay-file", type=click.Path(dir_okay=False), default=None, help="Recorded responses keyed by prompt digest."),
    click.option("--record-file", type=click.Path(dir_okay=False), default=None, help="Capture live responses for later replay; written even when the run fails."),
    click.option("--embedder", type=click.Choice(["trigram", "remote"]), default=None, help="Similarity embedding source."),
    click.option("--embed-endpoint", default=None, help="Embedding endpoint URL (remote embedder)."),
    click.option("--seed", type=int, default=None, help="Run seed; contexts derive per-parameter seeds from it."),
    click.option("--parallelism", type=int, default=None, help="Parameters enriched at once; each makes its calls in order."),
    click.option("--include-trivial/--no-include-trivial", default=None, help="Copy enum and boolean values through instead of skipping them."),
    click.option("--overload-suffix", default=None, help="Path suffix for preserved originals in fuzz mode."),
    click.option("--api-name", default=None, help="Override the API name derived from info.title."),
    click.option("--records", "records_path", type=click.Path(dir_okay=False), default=None, help="Where to write generation records (default: <out>.records.jsonl); must differ from every other output."),
    click.option("--manifest", "manifest_path", type=click.Path(dir_okay=False), default=None, help="Where to write the run manifest (default: <out>.manifest.json); must differ from every other output."),
]


def _with_enrich_options(command):
    for option in reversed(_ENRICH_OPTIONS):
        command = option(command)
    return command


def _run_enrich(
    spec_in: str,
    spec_out: str,
    config_path: str | None,
    api_name: str | None,
    records_path: str | None,
    manifest_path: str | None,
    cli_values: dict[str, Any],
) -> None:
    """Shared body of `enrich` and `fuzz-prep`; cli_values carries mode and bank_path."""
    config = build_run_config(config_path, cli_values)
    out_path = Path(spec_out)
    records_file = Path(records_path) if records_path else out_path.with_name(out_path.name + ".records.jsonl")
    manifest_file = Path(manifest_path) if manifest_path else out_path.with_name(out_path.name + ".manifest.json")
    _check_outputs(
        {"SPEC_OUT": out_path, "--records": records_file, "--manifest": manifest_file, "--record-file": config.record_file},
        {
            "--bank": config.bank_path,
            "--bank's index": index_path(config.bank_path),
            "--replay-file": config.replay_file,
            "--config": config_path,
        },
    )
    backend = _make_backend(config)
    embedder = _make_embedder(config.embedder, config.embed_endpoint)
    try:
        doc = _read_document(Path(spec_in))
        bank = load_bank(config.bank_path)
        result = enrich_document(doc, bank, config, backend, embedder, api_name=api_name or None)

        # the records and the manifest first, so a spec that cannot be written still leaves them
        with _writing(records_file):
            write_records(result.records, records_file)
        with _writing(manifest_file):
            write_manifest(result.manifest, manifest_file)
        with _writing(out_path):
            write_atomic(out_path, result.document.serialize())
    except IciclError as exc:
        raise click.ClickException(str(exc)) from exc
    finally:
        # responses already paid for stay replayable, whatever ended the run
        if isinstance(backend, RecordingBackend):
            with _writing(backend.out_path):
                backend.flush()

    counts = result.manifest.counts
    click.echo(
        f"enriched {counts['enriched']}/{counts['extracted']} parameters "
        f"({counts['skipped']} skipped, {counts['failed']} failed) -> {out_path}"
    )
    # All outputs are on disk either way; an all-skip/all-fail run still signals failure.
    if counts["enriched"] == 0:
        raise click.ClickException("no parameter was enriched")


@main.command()
@click.argument("spec_in", type=click.Path(exists=True, dir_okay=False))
@click.argument("spec_out", type=click.Path(dir_okay=False))
@click.option("--mode", type=click.Choice(["doc", "fuzz"]), default=None, help="Documentation examples or fuzzing overlays.  [default: doc]")
@_with_enrich_options
def enrich(spec_in, spec_out, config_path, api_name, records_path, manifest_path, **cli_values):
    """Generate examples for every parameter of SPEC_IN and write SPEC_OUT."""
    _run_enrich(spec_in, spec_out, config_path, api_name, records_path, manifest_path, cli_values)


@main.command(name="fuzz-prep")
@click.argument("spec_in", type=click.Path(exists=True, dir_okay=False))
@click.argument("spec_out", type=click.Path(dir_okay=False))
@_with_enrich_options
def fuzz_prep(spec_in, spec_out, config_path, api_name, records_path, manifest_path, **cli_values):
    """Shorthand for `enrich --mode fuzz`: constrained variants plus preserved originals."""
    _run_enrich(spec_in, spec_out, config_path, api_name, records_path, manifest_path, {**cli_values, "mode": "fuzz"})


@main.command(name="eval")
@click.argument("records_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--labels", "labels_path", type=click.Path(exists=True, dir_okay=False), default=None, help="CSV of human type-correctness labels.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None, help="Write the per-parameter table here.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None, help="Write the full report here.")
@click.option("--embedder", type=click.Choice(["trigram", "remote"]), default="trigram", show_default=True, help="Similarity embedding source.")
@click.option("--embed-endpoint", default=None, help="Embedding endpoint URL (remote embedder).")
def eval_cmd(records_file, labels_path, csv_path, json_path, embedder, embed_endpoint):
    """Score a generation record file and print a one-line summary."""
    _check_outputs({"--csv": csv_path, "--json": json_path}, {"RECORDS": records_file, "--labels": labels_path})
    endpoint = embed_endpoint or os.environ.get(_ENV_KEYS["embed_endpoint"], "")
    provider = _make_embedder(embedder, endpoint)
    try:
        records = read_records(records_file)
        if not records:
            raise click.ClickException("records log is empty")
        report = build_report(records, provider)
        if labels_path:
            applied = ingest_labels(report, labels_path)
            log.info("applied %d labels", applied)
        if csv_path:
            with _writing(csv_path):
                write_report_csv(report, csv_path)
        if json_path:
            with _writing(json_path):
                write_report_json(report, json_path)
    except (IciclError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(format_summary(report))


if __name__ == "__main__":
    main()
