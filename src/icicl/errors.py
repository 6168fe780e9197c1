"""Exception types shared across the package."""

from __future__ import annotations


class IciclError(Exception):
    """Base class for all package errors."""


class SpecSyntaxError(IciclError):
    """Input document is not parseable JSON or YAML."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{loc}")


class UnsupportedVersion(IciclError):
    """Document is neither OpenAPI 3.x nor Swagger 2.0."""


class PointerMiss(IciclError):
    """A JSON pointer does not resolve to a node in the document."""

    def __init__(self, pointer: str):
        self.pointer = pointer
        super().__init__(f"pointer does not resolve: {pointer!r}")


class EmptyCorpus(IciclError):
    """Corpus directory contains no parseable spec."""


class CorruptBank(IciclError):
    """A bank file line, or the bank's index file (line_no None), failed validation."""

    def __init__(self, line_no: int | None, reason: str):
        self.line_no = line_no
        where = "" if line_no is None else f" at line {line_no}"
        super().__init__(f"corrupt bank{where}: {reason}")


class InsufficientBank(IciclError):
    """Not enough eligible bank entries to build a prompt context."""


class BackendUnavailable(IciclError):
    """A completion or embedding endpoint could not be reached."""


class BackendRejected(IciclError):
    """A completion or embedding endpoint answered a non-2xx status or a malformed 2xx body.

    `retry_after` is the answer's Retry-After header, when it sent one.
    """

    def __init__(self, status: int, body: str, retry_after: str | None = None):
        self.status = status
        self.body = body
        self.retry_after = retry_after
        super().__init__(f"backend rejected request: HTTP {status}: {body[:200]}")


class GreedyMissing(IciclError):
    """Greedy example absent or type-incorrect; parameter cannot be enriched."""


class DimensionMismatch(IciclError):
    """Embedding vectors of different dimensions were combined."""


class PathCollision(IciclError):
    """Fuzz overload path already exists in the document."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"overload path already present: {path!r}")


class MalformedLabels(IciclError):
    """Labels CSV row is malformed."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"malformed labels row at line {line_no}: {reason}")
