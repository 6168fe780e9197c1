"""The YAML tree builder: one tree or error from libyaml's events and from the
pure-Python parser's, the tree a SafeLoader set up with the YAML 1.2 core
schema builds, a test naming each feature it refuses, and no crash on deep
input.
"""

import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from icicl import document
from icicl.document import MAX_DEPTH, ApiDocument, parse_document
from icicl.errors import SpecSyntaxError

FIXTURES = Path(__file__).resolve().parent / "fixtures"

LIBYAML = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")


# libyaml's parser where PyYAML has it, and the pure-Python one
EVENT_LOADERS = (document._LibyamlLoader, yaml.SafeLoader)


class CoreLoader(yaml.SafeLoader):
    """A SafeLoader with the core schema's implicit resolvers, `0o` and `0x`
    ints, and every mapping key read as its text: the oracle for texts that
    hold no refused feature and no `!` tag, which it resolves as a plain scalar.
    """

    def construct_mapping(self, node, deep=False):
        return {key.value: self.construct_object(value, deep=deep) for key, value in node.value}


CoreLoader.yaml_implicit_resolvers = {}
for _tag, _core in document._CORE.items():
    CoreLoader.add_implicit_resolver(_tag, _core.texts, _core.firsts)
CoreLoader.add_constructor(
    "tag:yaml.org,2002:int", lambda loader, node: int(node.value, 0 if node.value[:2] in ("0o", "0x") else 10)
)


def shape(root):
    """The tree's repr, which tells 1 from 1.0, True and "1", and for each
    container met walking it, the number of the first container it is.
    """
    numbers, met, stack = {}, [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            met.append(numbers.setdefault(id(node), len(numbers)))
            if met[-1] == len(numbers) - 1:
                stack.extend(reversed(list(node.values()) if isinstance(node, dict) else node))
    return repr(root), met


def built(text, loader):
    """The shape of the builder's tree from this parser's events, or its
    error's class, with the message where the builder refused the text."""
    try:
        root, _ = document._build_tree(yaml.parse(text, Loader=loader))
    except SpecSyntaxError as exc:
        return SpecSyntaxError, str(exc)
    except yaml.YAMLError as exc:
        return type(exc)
    return shape(root)


def one_outcome(text):
    """The builder's outcome, which libyaml's events and the pure parser's give alike."""
    first, *others = (built(text, loader) for loader in EVENT_LOADERS)
    assert all(other == first for other in others)
    return first


def assert_built_as_core_loader(text):
    expected = shape(yaml.load(text, Loader=CoreLoader))
    assert one_outcome(text) == expected
    assert shape(document._load_yaml(text)) == expected


DATE_LIKE = st.dates().map(str) | st.datetimes().map(lambda d: d.isoformat())
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
    | st.text(st.characters(min_codepoint=0x80, exclude_categories=("Cs",)), min_size=1)
    | DATE_LIKE
)
TREES = st.recursive(
    SCALARS,
    # a list holding one subtree twice dumps as an anchor and an alias
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text() | DATE_LIKE, kids, max_size=4) | kids.map(lambda kid: [kid, kid]),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(tree=TREES, flow=st.booleans())
def test_dumped_trees_load_equal_under_both_loaders(tree, flow):
    # PyYAML dumps by YAML 1.1, so some of its plain texts, such as 0o17, read back as numbers
    assert_built_as_core_loader(yaml.safe_dump(tree, default_flow_style=flow, allow_unicode=True))


# plain scalars that resolve to each type, ones only YAML 1.1 resolves, quoted ones, and explicit tags
SCALAR_TEXTS = [
    "a", "b", "1", "-2", "0x1F", "0o17", "012", "0b11", "1_000", "190:20:30", "1.5", "-.inf", ".NaN", "1e3", "true",
    "on", "Off", "yes", "NO", "~", "null", "=", "<<", "2001-12-14", "'1'", '"on"', "''", "!!str 1", "!!str on",
    "!!int '12'", "!!float 1", "!!bool 'TRUE'", "!!null ''", "!!str ''",
]
NOT_TEXT_TAGS = ("!!int", "!!float", "!!bool", "!!null")
KEY_TEXTS = ["a", "b", "1", "-2", "0x1F", "0o17", "0b11", "1_000", "1.5", ".NaN", "on", "~", "'<<'", "!!str 1"]
MERGE, NOT_A_TEXT = "'<<' merge keys are not supported: YAML 1.2 has none", "a mapping key must be a text"


def _write(draw, depth, anchors, refusals):
    kind = draw(st.sampled_from(["scalar", "alias", "sequence", "mapping"][2 * (depth == 0) : 4 if depth < 3 else 2]))
    if kind == "alias":
        if anchors:
            return "*" + draw(st.sampled_from(sorted(anchors))) + " "
        kind = "scalar"
    if kind == "sequence":
        text = "[" + ", ".join(_write(draw, depth + 1, anchors, refusals) for _ in range(draw(st.integers(0, 3)))) + "]"
    elif kind == "mapping":
        pairs = []
        for _ in range(draw(st.integers(0, 4))):
            maps = sorted(name for name, kind in anchors.items() if kind == "mapping")
            scalars = sorted(name for name, kind in anchors.items() if kind in ("text", "scalar"))
            if maps and draw(st.integers(0, 5)) == 0:
                refusals.add(MERGE)
                pairs.append("<<: *" + draw(st.sampled_from(maps)) + " ")
                continue
            key = draw(st.sampled_from(KEY_TEXTS + [f"*{name} " for name in scalars]))
            if key.startswith("*") and anchors[key[1:-1]] == "scalar":
                refusals.add(NOT_A_TEXT)
            pairs.append(f"{key}: {_write(draw, depth + 1, anchors, refusals)}")
        text = "{" + ", ".join(pairs) + "}"
    else:
        text = draw(st.sampled_from(SCALAR_TEXTS))
        kind = "scalar" if text.startswith(NOT_TEXT_TAGS) else "text"
    if draw(st.booleans()):
        name = f"n{len(anchors)}"
        anchors[name] = kind
        text = f"&{name} {text}"
    return text


@st.composite
def written_texts(draw):
    """A flow-style YAML text with anchors on scalars and containers, aliases,
    duplicate keys and keys the core schema reads as other scalars, and the
    refusals it may end in: a `<<` merge key, or an alias to a scalar tagged
    as other than a text used as a key.
    """
    refusals = set()
    return _write(draw, 0, {}, refusals), refusals


@settings(max_examples=500, deadline=None)
@given(written=written_texts())
def test_written_texts_load_equal_under_both_loaders(written):
    text, refusals = written
    if not refusals:
        assert_built_as_core_loader(text)
        return
    cls, message = one_outcome(text)
    assert cls is SpecSyntaxError and any(message.startswith(refusal) for refusal in refusals)


# the YAML 1.2.2 core schema, section 10.3.2, and texts only YAML 1.1 resolves, which stay strings
@pytest.mark.parametrize(
    "scalar, value",
    [
        *[(text, None) for text in ["null", "Null", "NULL", "~", ""]],
        *[(text, text[0] in "tT") for text in ["true", "True", "TRUE", "false", "False", "FALSE"]],
        *[("0", 0), ("0o7", 7), ("0x3A", 58), ("-19", -19), ("+12", 12), ("012", 12), ("0x3a", 58)],
        *[("0.", 0.0), ("-0.0", -0.0), (".5", 0.5), ("+12e03", 12000.0), ("-2E+05", -200000.0), ("1e3", 1000.0)],
        *[(".inf", float("inf")), ("-.Inf", float("-inf")), ("+.INF", float("inf")), (".NaN", float("nan"))],
        *[(text, text) for text in ["on", "Off", "yes", "n", "0b11", "1_000", "190:20:30", "2001-12-14", "0x", "0o8",
                                    "1e", ".", "+", "nULL", "tRUE", "+.nan", "1.2.3", "=", "<<", "1a"]],
        *[("! 12", "12"), ("! true", "true"), ("!!str 0o17", "0o17"), ("!!float 1", 1.0), ("!!int '0x1F'", 31),
          ("!!null ''", None), ("!!bool 'TRUE'", True), ("'1'", "1"), ('"null"', "null")],
    ],
)
def test_scalars_resolve_by_the_core_schema(scalar, value):
    loaded = one_outcome(f"a: {scalar}\n")
    assert loaded == shape({"a": value})
    assert repr(parse_document(f"a: {scalar}\n").root["a"]) == repr(value)


def test_keys_load_as_their_text():
    text = "{on: 1, yes: 2, 200: 3, ~: 4, null: 5, 1.5: 6, 0o17: 7, '<<': 8, ! <<: 9, !!str 10: 10}\n"
    assert parse_document(text).root == {
        "on": 1, "yes": 2, "200": 3, "~": 4, "null": 5, "1.5": 6, "0o17": 7, "<<": 9, "10": 10
    }
    # an alias key is the text of the scalar it names, which as a value reads as what it resolves to
    assert parse_document("a: &x 1\n*x : b\n").root == {"a": 1, "1": "b"}


@pytest.mark.parametrize("text, root", [("a: ! [1]\n", [1]), ("a: !!seq [1]\n", [1]), ("a: !!map {b: 1}\n", {"b": 1})])
def test_json_schema_tags_on_collections_are_read(text, root):
    assert one_outcome(text) == shape({"a": root})


# each feature of YAML that OpenAPI's JSON schema tags and text keys leave out
@pytest.mark.parametrize(
    "text, message, line, column",
    [
        pytest.param("a: !custom 1\n", "tag !custom on a scalar is not a JSON schema tag", 1, 4, id="unknown-tag"),
        pytest.param("a: !!binary aGk=\n", "tag !!binary on a scalar is not a JSON schema tag", 1, 4, id="binary-tag"),
        pytest.param("a: !!timestamp 2001-12-14\n", "tag !!timestamp on a scalar is not a JSON schema tag", 1, 4, id="timestamp-tag"),
        pytest.param("a:\n  b: !!set {c}\n", "tag !!set on a mapping is not a JSON schema tag", 2, 6, id="set-tag"),
        pytest.param("a: !!map x\n", "tag !!map on a scalar is not a JSON schema tag", 1, 4, id="collection-tag-on-a-scalar"),
        pytest.param("a: !!seq {b: 1}\n", "tag !!seq on a mapping is not a JSON schema tag", 1, 4, id="sequence-tag-on-a-mapping"),
        pytest.param("a: [!!bool maybe]\n", "'maybe' is not a valid bool", 1, 5, id="scalar-its-tag-refuses"),
        pytest.param("a: {b: 1, <<: {c: 1}}\n", MERGE, 1, 11, id="merge-key"),
        pytest.param("? [a]\n: b\n", NOT_A_TEXT, 1, 3, id="key-that-is-a-collection"),
        pytest.param("a: 1\n!!int 2: b\n", NOT_A_TEXT, 2, 1, id="key-tagged-as-no-text"),
        pytest.param("a: &x [1]\n*x : b\n", NOT_A_TEXT, 2, 1, id="alias-key-to-a-container"),
        pytest.param("a: &x !!int 1\n*x : b\n", NOT_A_TEXT, 2, 1, id="alias-key-to-a-tagged-scalar"),
        pytest.param("a: *x\n", "found undefined alias 'x'", 1, 4, id="undefined-alias"),
        pytest.param("a: &x 1\nb: &x 2\n", "found duplicate anchor 'x'", 2, 4, id="duplicate-anchor"),
        pytest.param("a: 1\n---\nb: 2\n", "expected a single document in the stream, but found another document", 2, 1,
                     id="second-document"),
    ],
)
def test_refused_feature_is_a_syntax_error_at_its_event(text, message, line, column):
    assert one_outcome(text) == (SpecSyntaxError, f"{message} (line {line}, column {column})")
    with pytest.raises(SpecSyntaxError) as err:
        parse_document(text)
    assert (str(err.value), err.value.line, err.value.column) == (f"{message} (line {line}, column {column})", line, column)


@pytest.mark.parametrize(
    "text",
    [
        "{a: 1, <<: {b: 2, a: 3}, c: 4}",
        "x: &x {a: 1, b: 2}\ny: &y {b: 3, c: 4}\nz: {<<: [*x, *y], c: 5}\n",
        "x: &x {a: 1}\ny: &y {b: 2}\nz: {b: 3, <<: *x, <<: *y}\n",
        "x: &x {a: 1, <<: {c: 2}}\nz: {<<: *x}\n",
        "&x {a: 1, b: {<<: *x}}\n",
        "x: &x {a: [1]}\ny: {<<: *x}\n",
    ],
    ids=["inline", "list", "twice", "merged-merge", "still-open", "shared"],
)
def test_merge_keys_are_refused(text):
    # YAML 1.2 has no merge keys, and reading `<<` as a plain key would lose the pairs it merges
    at = text.index("<<")
    line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    assert one_outcome(text) == (SpecSyntaxError, f"{MERGE} (line {line}, column {column})")


def test_nan_keys_are_one_key():
    # a `.nan` key is its text, which equals itself as the float NaN does not
    assert_built_as_core_loader("{.nan: 1, .NaN: 2, .nan: 3}")
    assert parse_document("{.nan: 1, .NaN: 2, .nan: 3}").root == {".nan": 3, ".NaN": 2}


# texts the builder once left to a pure-Python loader: it now reads each by the core schema, or refuses it
@pytest.mark.parametrize(
    "text, outcome",
    [
        pytest.param("a: !custom 1\n", "tag !custom on a scalar", id="a: !custom 1\n"),
        pytest.param("a: !!set {b}\n", "tag !!set on a mapping", id="a: !!set {b}\n"),
        pytest.param("? [a]\n: b\n", NOT_A_TEXT, id="? [a]\n: b\n"),
        pytest.param("a: &x [1]\n*x : b\n", NOT_A_TEXT, id="a: &x [1]\n*x : b\n"),
        pytest.param("a: *x\n", "found undefined alias", id="a: *x\n"),
        pytest.param("a: &x 1\nb: &x 2\n", "found duplicate anchor", id="a: &x 1\nb: &x 2\n"),
        pytest.param("a: =\n", {"a": "="}, id="a: =\n"),
        pytest.param("a: <<\n", {"a": "<<"}, id="a: <<\n"),
        pytest.param("a: {<<: 1}\n", MERGE, id="a: {<<: 1}\n"),
        pytest.param("a: {<<: {b: 1}}\n", MERGE, id="a: {<<: {b: 1}}\n"),
        pytest.param("x: &x {a: 1}\ny: {<<: *x}\n", MERGE, id="x: &x {a: 1}\ny: {<<: *x}\n"),
        pytest.param("a: !!int x\n", "'x' is not a valid int", id="a: !!int x\n"),
        pytest.param("a: 1\n---\nb: 2\n", "expected a single document", id="a: 1\n---\nb: 2\n"),
        pytest.param("a: ! 12\n", {"a": "12"}, id="a: ! 12\n"),
    ],
)
def test_what_the_builder_leaves_to_the_pure_loader(text, outcome):
    if isinstance(outcome, dict):
        assert one_outcome(text) == shape(outcome)
        assert parse_document(text).root == outcome
        return
    cls, message = one_outcome(text)
    assert cls is SpecSyntaxError and message.startswith(outcome)
    with pytest.raises(SpecSyntaxError, match="^" + outcome):
        parse_document(text)


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.yaml")), ids=lambda p: p.relative_to(FIXTURES).as_posix())
def test_fixture_files_load_equal_under_both_loaders(path):
    text = path.read_text(encoding="utf-8")
    try:
        yaml.load(text, Loader=CoreLoader)
    except yaml.YAMLError as exc:
        assert one_outcome(text) is type(exc)
    else:
        assert_built_as_core_loader(text)


JSON_TEXTS = st.sampled_from(["0o17", "1e3", ".5", "0b11", "1_000", "190:20:30", "on", "~", "<<", "0x1F", "+12", "012",
                              ".inf", "-.NaN", "NULL", "True", "=", ""]) | st.text()
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | JSON_TEXTS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(JSON_TEXTS, kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(tree=JSON_TREES)
def test_written_spec_reads_back_as_the_same_tree(tree):
    assert repr(parse_document(ApiDocument(tree, "yaml").serialize()).root) == repr(tree)


def test_written_text_the_core_schema_reads_as_a_number_is_quoted(monkeypatch):
    tree = {"a": ["0o17", "1e3", "0b11"]}
    assert ApiDocument(tree, "yaml").serialize() == b"a:\n- '0o17'\n- '1e3'\n- '0b11'\n"
    # PyYAML's own dumper writes these two plain, as YAML 1.1 reads them as texts
    monkeypatch.setattr(document, "_SpecDumper", yaml.SafeDumper)
    assert parse_document(ApiDocument(tree, "yaml").serialize()).root == {"a": [15, 1000.0, "0b11"]}


@LIBYAML
@pytest.mark.parametrize(
    "text, message",
    [
        ((FIXTURES / "corpus" / "broken.yaml").read_text(encoding="utf-8"), "expected ',' or ']', but got ':'"),
        ("a: \ud800\n", "special characters are not allowed"),  # libyaml cannot even encode it
    ],
    ids=["broken.yaml", "lone-surrogate"],
)
def test_errors_keep_the_pure_loaders_words(text, message, monkeypatch):
    # a text libyaml refuses is read again from the pure parser's events, whose words stand
    with pytest.raises(SpecSyntaxError) as fast:
        parse_document(text)
    monkeypatch.setattr(document, "_LibyamlLoader", yaml.SafeLoader)
    with pytest.raises(SpecSyntaxError) as pure:
        parse_document(text)
    assert message in str(fast.value)
    assert str(fast.value) == str(pure.value)
    assert (fast.value.line, fast.value.column) == (pure.value.line, pure.value.column)


@LIBYAML
def test_lone_surrogate_only_the_pure_loader_reads_is_a_syntax_error():
    # libyaml refuses an escaped lone surrogate; the pure parser reads it, but UTF-8 cannot write it
    text = 'a: "\\ud800"\n'
    with pytest.raises(yaml.YAMLError, match="invalid Unicode character escape code"):
        yaml.load(text, Loader=document._LibyamlLoader)
    assert yaml.load(text, Loader=yaml.SafeLoader) == {"a": "\ud800"}
    with pytest.raises(SpecSyntaxError, match="U\\+D800"):
        parse_document(text)


@LIBYAML
def test_tab_after_colon_is_accepted():
    # YAML allows a tab as separation here; only the pure parser refuses it
    with pytest.raises(yaml.YAMLError, match="found character '\\\\t'"):
        yaml.load("a:\tb\n", Loader=yaml.SafeLoader)
    assert parse_document("a:\tb\n").root == {"a": "b"}


# a loader that built nodes by recursion would overflow the C stack or hit the recursion limit on each
@LIBYAML
@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        "[a: " * 50_000 + "x" + "]" * 50_000,
        "- " * 100_000 + "x\n",
        "{a: " * 100_000,
        "[" * 100_000 + "!custom x" + "]" * 100_000,  # refused for its depth before its tag is met
    ],
    ids=["flow-sequence", "single-pair-mappings", "block-sequence", "unclosed-flow-mapping", "unknown-tag"],
)
def test_nesting_past_libyaml_stack_is_syntax_error(text):
    with pytest.raises(SpecSyntaxError, match="YAML nested too deeply"):
        parse_document(text, format_hint="yaml")


@LIBYAML
def test_deep_broken_flow_text_is_refused_before_the_pure_loader():
    # libyaml would refuse the text, and the pure parser's scanner take time quadratic in its flow depth
    assert_refused_at_once("[" * 1000 + "x" + "]" * 999, f"YAML nested too deeply: more than {MAX_DEPTH} levels")


@LIBYAML
def test_deep_text_under_an_unknown_tag_is_refused_before_the_pure_loader():
    # the tag is refused at its event, before the levels under it are read
    assert_refused_at_once("!custom " + "[" * 10_000 + "]" * 10_000, "tag !custom on a sequence is not a JSON schema tag (line 1, column 1)")


def assert_refused_at_once(text, message):
    started = time.thread_time()
    with pytest.raises(SpecSyntaxError) as err:
        parse_document(text, format_hint="yaml")
    assert str(err.value) == message
    assert time.thread_time() - started < 0.1
