"""In-context learning example generation for OpenAPI parameter docs.

The library mines example-bearing parameters from a spec corpus, retrieves
similar ones for a target parameter, prompts a completion model with few-shot
contexts, and re-encodes the winners into the spec for documentation or
fuzzing consumers.

The package root re-exports nothing; import each name from the module that
defines it, e.g. `from icicl.pipeline import enrich_document`.
"""
