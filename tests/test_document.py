"""Document parsing, pointer resolution, and format-faithful serialization."""

import pytest

from icicl.document import (
    MAX_DEPTH,
    ApiDocument,
    document_version,
    escape_pointer_token,
    join_pointer,
    parse_document,
)
from icicl.errors import PointerMiss, SpecSyntaxError

from support import DEEP_JSON


def test_json_autodetect():
    doc = parse_document(b'{"openapi": "3.0.0", "paths": {}}')
    assert doc.fmt == "json"
    assert doc.root["openapi"] == "3.0.0"


def test_yaml_autodetect():
    doc = parse_document(b"openapi: 3.0.0\npaths: {}\n")
    assert doc.fmt == "yaml"
    assert doc.root["paths"] == {}


def test_brace_leading_yaml_falls_through():
    # not valid JSON (unquoted key), but fine as YAML flow mapping
    doc = parse_document("{a: 1}")
    assert doc.fmt == "yaml"
    assert doc.root == {"a": 1}


def test_yaml_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_document(b"a: [1, 2\nb: {\n")
    assert err.value.line is not None


def test_json_hint_error_positions():
    with pytest.raises(SpecSyntaxError) as err:
        parse_document('{"a": }', format_hint="json")
    assert err.value.line == 1


# nested block sequences: the YAML scanner takes quadratic time over nested flow brackets
@pytest.mark.parametrize(
    "text, hint",
    [(DEEP_JSON, None), (DEEP_JSON, "json"), ("- " * 10_000 + "x\n", "yaml")],
    ids=["auto", "json", "yaml"],
)
def test_deeply_nested_input_is_syntax_error(text, hint):
    with pytest.raises(SpecSyntaxError, match="nested too deeply"):
        parse_document(text, format_hint=hint)


# each gives a tree exactly `depth` containers deep
NESTED = {
    "json": lambda depth: ("[" * depth + "]" * depth, None),
    "flow-yaml": lambda depth: ("[" * depth + "x" + "]" * depth, "yaml"),
    "flow-mapping-yaml": lambda depth: ("{a: " * depth + "x" + "}" * depth, "yaml"),
    "block-yaml": lambda depth: ("- " * depth + "x\n", None),
    "indented-yaml": lambda depth: ("".join(f"{' ' * i}k:\n" for i in range(depth - 1)) + " " * (depth - 1) + "k: x\n", None),
}


@pytest.mark.parametrize("shape", NESTED)
def test_max_depth_parses(shape):
    text, hint = NESTED[shape](MAX_DEPTH)
    node, levels = parse_document(text, format_hint=hint).root, 0
    while isinstance(node, (dict, list)):
        node, levels = next(iter(node.values() if isinstance(node, dict) else node), None), levels + 1
    assert levels == MAX_DEPTH


@pytest.mark.parametrize(
    "shape, depth",
    # 10,000 indented levels would take 50 MB of spaces
    [(shape, depth) for shape in NESTED for depth in [MAX_DEPTH + 1, 1_000, 10_000] if (shape, depth) != ("indented-yaml", 10_000)],
)
def test_past_max_depth_is_syntax_error(shape, depth):
    text, hint = NESTED[shape](depth)
    with pytest.raises(SpecSyntaxError, match=f"nested too deeply: more than {MAX_DEPTH} levels"):
        parse_document(text, format_hint=hint)


@pytest.mark.parametrize(
    "head, error",
    [("! 1", None), ("{<<: 1}", "'<<' merge keys are not supported")],
    ids=["non-specific-tag", "merge-of-a-scalar"],
)
def test_text_left_to_the_pure_loader_may_nest_max_depth(head, error):
    # the tree builder once left this text to a pure-Python loader where `head` ends; it now reads
    # `! 1` as a string and refuses the merge key itself, in a text that nests MAX_DEPTH levels
    text = f"[{head}, " + "[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1) + "]"
    if error is None:
        assert parse_document(text, format_hint="yaml").root[0] == "1"
    else:
        with pytest.raises(SpecSyntaxError, match=error):
            parse_document(text, format_hint="yaml")


@pytest.mark.parametrize("text", ["a: &a [*a]\n", "a: &a {b: *a}\n"], ids=["sequence", "mapping"])
def test_alias_cycle_is_too_deep(text):
    with pytest.raises(SpecSyntaxError, match="YAML nested too deeply"):
        parse_document(text)


def test_alias_shared_along_many_paths_is_walked_once_per_level():
    # 30 lists, each holding nine aliases of the one before: 9**29 paths to 30 containers
    lines = ["l0: &l0 [x]"] + [f"l{i}: &l{i} [{', '.join([f'*l{i - 1}'] * 9)}]" for i in range(1, 30)]
    root = parse_document("\n".join(lines) + "\n").root
    assert root["l29"][0][0] is root["l27"]


BIG_INT = "1" * 5000  # over the 4,300-digit limit of `int`


@pytest.mark.parametrize(
    "text, hint",
    [(f'{{"a": {BIG_INT}}}', None), (f'{{"a": {BIG_INT}}}', "json"), (f"a: {BIG_INT}\n", None), (f"a: {BIG_INT}\n", "yaml")],
    ids=["json-auto", "json", "yaml-auto", "yaml"],
)
def test_integer_over_digit_limit_is_syntax_error(text, hint):
    with pytest.raises(SpecSyntaxError, match="4300"):
        parse_document(text, format_hint=hint)


@pytest.mark.parametrize("hint", [None, "json"], ids=["auto", "json"])
@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_rfc_number_in_json_is_syntax_error(number, hint):
    # Python's json reads these, but they are not RFC 8259 JSON, nor is the text YAML to fall back on
    with pytest.raises(SpecSyntaxError, match=number.lstrip("-")):
        parse_document('{"openapi": "3.0.0", "x": %s}' % number, format_hint=hint)


# each loads a key or string holding a surrogate, which UTF-8 cannot encode
@pytest.mark.parametrize(
    "data",
    [
        b'{"a": "\\ud800"}',
        b'{"\\udc00": 1}',
        b'{"a": [{"b": "x\\uDFFFy"}]}',
        b'"\\ud800"',
        b'a: "\\ud800"\n',
        b'"\\udc00": 1\n',
        b'a: "\\U0000D800"\n',
        b'a: "\\ud83d\\ude00"\n',  # YAML decodes each escape of a pair alone
        '{"a": "\ud800"}',
    ],
    ids=["json-value", "json-key", "json-nested", "json-root", "yaml-value", "yaml-key", "yaml-long-escape", "yaml-pair", "str-argument"],
)
def test_surrogate_in_a_string_is_syntax_error(data):
    with pytest.raises(SpecSyntaxError, match="surrogate UTF-8 cannot encode"):
        parse_document(data)


# a text its core tag does not read, and a tag outside JSON schema's, which no text fits
@pytest.mark.parametrize(
    "scalar, message",
    [("!!bool maybe", "'maybe' is not a valid bool"), ("!!float ''", "'' is not a valid float"),
     ("!!timestamp x", "tag !!timestamp on a scalar is not a JSON schema tag")],
    ids=["bool", "float", "timestamp"],
)
def test_explicit_tag_its_text_does_not_fit_is_syntax_error(scalar, message):
    with pytest.raises(SpecSyntaxError, match=f"{message} \\(line 2, column 8\\)"):
        parse_document(f"a: 1\nb: [1, {scalar}]\n".encode())


@pytest.mark.parametrize(
    "data, value",
    [
        (b'{"a": "\\ud83d\\ude00"}', "\U0001F600"),
        (b'a: "\\U0001F600"\n', "\U0001F600"),
        (b'{"a": "\\\\ud800"}', "\\ud800"),
        (b"a: '\\ud800'\n", "\\ud800"),
    ],
    ids=["json-pair", "yaml-long-escape", "json-escaped-backslash", "yaml-single-quoted"],
)
def test_writable_text_near_surrogate_escapes_loads(data, value):
    assert parse_document(data).root == {"a": value}


def test_non_utf8_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_document(b"\xff\xfe\x00bad")


def test_bad_hint_rejected():
    with pytest.raises(ValueError):
        parse_document(b"{}", format_hint="toml")


def test_timestamps_stay_strings():
    doc = parse_document(b"released: 2020-01-01\nat: 2020-01-01T10:00:00Z\n")
    assert doc.root["released"] == "2020-01-01"
    assert doc.root["at"] == "2020-01-01T10:00:00Z"


def test_pointer_escaping_round_trip():
    assert escape_pointer_token("/v2/currency/{currency}") == "~1v2~1currency~1{currency}"
    assert escape_pointer_token("a~b") == "a~0b"
    pointer = join_pointer("paths", "/pets/{petId}", "get")
    assert pointer == "/paths/~1pets~1{petId}/get"


def test_resolve_walks_objects_and_arrays():
    doc = parse_document(b'{"paths": {"/p": {"get": {"parameters": [{"name": "x"}]}}}}')
    node = doc.resolve("/paths/~1p/get/parameters/0")
    assert node == {"name": "x"}
    assert doc.resolve("") is doc.root


# keys YAML 1.1 loaded as True, False, None, a float and ints, which resolve once matched by their str
@pytest.mark.parametrize(
    "key, token",
    [("on", "True"), ("off", "False"), ("yes", "True"), ("null", "None"), ("1.5", "1.5"), ("200", "200"), ("-1", "-1")],
)
def test_resolve_follows_a_yaml_key_that_is_not_a_string_by_its_str(key, token):
    # every key now loads as its text, so its pointer is its text, and no other spelling reaches it
    doc = parse_document(f"properties:\n  {key}: {{type: string}}\n")
    assert list(doc.root["properties"]) == [key]
    assert doc.resolve(join_pointer("properties", key)) == {"type": "string"}
    if token != key:
        with pytest.raises(PointerMiss):
            doc.resolve(f"/properties/{token}")


def test_resolve_prefers_a_string_key_and_matches_no_other_spelling():
    doc = parse_document("a: {on: 1, 'True': 2, 2: 3}\n")
    assert doc.root["a"] == {"on": 1, "True": 2, "2": 3}
    assert doc.resolve("/a/True") == 2
    assert doc.resolve("/a/2") == 3
    assert doc.resolve("/a/on") == 1
    for token in ["1", "true", "02", "2.0"]:
        with pytest.raises(PointerMiss):
            doc.resolve(f"/a/{token}")


def test_resolve_misses_name_the_pointer():
    doc = parse_document(b'{"a": {"b": 1}}')
    with pytest.raises(PointerMiss) as err:
        doc.resolve("/a/c")
    assert "/a/c" in str(err.value)


def test_serialize_json_round_trips():
    original = b'{"openapi": "3.0.0", "info": {"title": "T", "version": "1"}, "paths": {}}'
    doc = parse_document(original)
    out = doc.serialize()
    assert isinstance(out, bytes)
    again = parse_document(out)
    assert again.root == doc.root
    assert again.fmt == "json"


def test_serialize_yaml_round_trips_and_indents():
    doc = parse_document(b"openapi: 3.0.0\ninfo:\n  title: T\n  version: '1'\npaths: {}\n")
    out = doc.serialize()
    again = parse_document(out)
    assert again.root == doc.root
    assert again.fmt == "yaml"
    text = out.decode("utf-8")
    assert "  title: T" in text  # two-space indentation


# YAML 1.1 reads these as line breaks, YAML 1.2 as ordinary characters
@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"], ids=["U+0085", "U+2028", "U+2029"])
@pytest.mark.parametrize(
    "text, tree",
    [
        ("a: x{c}y\n", lambda c: {"a": f"x{c}y"}),
        ("a: 'x{c}y'\n", lambda c: {"a": f"x{c}y"}),
        ('a: "x{c}y"\n', lambda c: {"a": f"x{c}y"}),
        ("a: |\n  x{c}y\n", lambda c: {"a": f"x{c}y\n"}),
        ("a: >\n  x{c}\n  y\n", lambda c: {"a": f"x{c} y\n"}),
        ("k{c}: [x{c}]\n", lambda c: {f"k{c}": [f"x{c}"]}),
    ],
    ids=["plain", "single-quoted", "double-quoted", "literal", "folded", "key"],
)
def test_unicode_line_separators_are_ordinary_characters(char, text, tree):
    parsed = parse_document(text.format(c=char).encode("utf-8")).root
    assert parsed == tree(char)
    written = ApiDocument(parsed, "yaml").serialize()
    assert char not in written.decode("utf-8")  # double-quoted, as an escape
    assert parse_document(written).root == parsed


def test_private_use_character_beside_a_line_separator_keeps_its_own_meaning():
    # a stand-in for U+0085 must be none of the characters the text names, raw or by an escape
    text = 'a: "\\uE000\\U0000e001"\nb: \ue002\x85\u2028\u2029\n'
    assert parse_document(text.encode("utf-8")).root == {"a": "\ue000\ue001", "b": "\ue002\x85\u2028\u2029"}


def test_serialize_preserves_key_order():
    doc = parse_document(b'{"paths": {"/b": {}, "/a": {}}}')
    assert list(parse_document(doc.serialize()).root["paths"]) == ["/b", "/a"]


def test_document_version_variants():
    assert document_version(parse_document(b'{"openapi": "3.1.0"}')) == ("openapi", "3.1.0")
    assert document_version(parse_document(b'swagger: "2.0"\n')) == ("swagger", "2.0")
    # YAML turns an unquoted 2.0 into a float; version detection must cope
    assert document_version(parse_document(b"swagger: 2.0\n")) == ("swagger", "2.0")
    assert document_version(parse_document(b'{"title": "nope"}')) is None
    assert document_version(ApiDocument(root=[1, 2], fmt="json")) is None
