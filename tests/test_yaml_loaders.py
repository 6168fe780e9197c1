"""The YAML tree builder against the pure-Python loader: equal trees, the same sharing and errors, no crash on deep input.

The builder reads libyaml's events where PyYAML has libyaml, and the pure
parser's events where it does not; its oracle runs on both.
"""

import re
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from icicl import document
from icicl.document import MAX_DEPTH, parse_document
from icicl.errors import SpecSyntaxError

FIXTURES = Path(__file__).resolve().parent / "fixtures"

LIBYAML = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")


# libyaml's parser where PyYAML has it, and the pure-Python one
EVENT_LOADERS = (document._LibyamlSpecLoader, document._SpecLoader)


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


def pure(text):
    return shape(yaml.load(text, Loader=document._SpecLoader))


def assert_built_as_pure(text):
    """The builder, from either parser's events and with no fallback, and
    `_load_yaml` build the tree the pure loader builds.
    """
    expected = pure(text)
    for loader in EVENT_LOADERS:
        root, _ = document._build_tree(yaml.parse(text, Loader=loader))
        assert shape(root) == expected
    assert shape(document._load_yaml(text)) == expected


def assert_left_to_pure_loader(text):
    """The builder, from either parser's events, gives the text up, and
    `_load_yaml` builds the pure loader's tree or raises its error.
    """
    for loader in EVENT_LOADERS:
        with pytest.raises(document._Unhandled):
            document._build_tree(yaml.parse(text, Loader=loader))
    try:
        expected = pure(text)
    except (yaml.YAMLError, ValueError) as exc:
        with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
            document._load_yaml(text)
    else:
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
    | st.binary(max_size=8)  # dumped with an explicit !!binary tag
)
KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False) | DATE_LIKE
TREES = st.recursive(
    SCALARS,
    # a list holding one subtree twice dumps as an anchor and an alias
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(KEYS, kids, max_size=4) | kids.map(lambda kid: [kid, kid]),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(tree=TREES, flow=st.booleans())
def test_dumped_trees_load_equal_under_both_loaders(tree, flow):
    assert_built_as_pure(yaml.safe_dump(tree, default_flow_style=flow, allow_unicode=True))


# plain scalars that resolve to each type, quoted ones that do not, and explicit scalar tags
SCALAR_TEXTS = [
    "a", "b", "1", "-2", "0x1F", "0o17", "0b11", "1_000", "190:20:30", "1.5", "-.inf", ".NaN", "1e3", "true", "on", "Off",
    "yes", "NO", "~", "null", "2001-12-14", "'1'", '"on"', "''", "!!str 1", "!!str on", "!!int '12'", "!!float 1",
    "!!bool yes", "!!null ''", "!!binary aGk=", "!!timestamp 2001-12-14", "!!str ''",
]


@st.composite
def written_texts(draw, depth=0, anchors=None):
    """A flow-style YAML text with anchors on scalars and containers, aliases,
    `<<` merges, duplicate keys and keys that do not load as strings.
    """
    anchors = {} if anchors is None else anchors  # name -> whether it names a mapping
    kind = draw(st.sampled_from(["scalar", "alias", "sequence", "mapping"][2 * (depth == 0) : 4 if depth < 3 else 2]))
    if kind == "alias" and anchors:
        return "*" + draw(st.sampled_from(sorted(anchors))) + " "
    if kind == "sequence":
        text = "[" + ", ".join(draw(st.lists(written_texts(depth + 1, anchors), max_size=3))) + "]"
    elif kind == "mapping":
        pairs = []
        for _ in range(draw(st.integers(0, 4))):
            maps = sorted(name for name, is_map in anchors.items() if is_map)
            if maps and draw(st.booleans()):
                merged = draw(st.lists(st.sampled_from(maps), min_size=1, max_size=3))
                pairs.append("<<: " + (f"*{merged[0]} " if len(merged) == 1 else "[" + ", ".join(f"*{m} " for m in merged) + "]"))
            else:
                scalar_anchors = sorted(name for name, is_map in anchors.items() if is_map is None)
                key = draw(st.sampled_from(SCALAR_TEXTS[:12] + [f"*{a} " for a in scalar_anchors]))
                pairs.append(f"{key}: {draw(written_texts(depth + 1, anchors))}")
        text = "{" + ", ".join(pairs) + "}"
    else:
        text = draw(st.sampled_from(SCALAR_TEXTS))
    if draw(st.booleans()):
        name = f"n{len(anchors)}"
        anchors[name] = {"mapping": True, "sequence": False}.get(kind)
        text = f"&{name} {text}"
    return text


@settings(max_examples=500, deadline=None)
@given(text=written_texts())
def test_written_texts_load_equal_under_both_loaders(text):
    # a `<<` merge key is the one thing in these texts the builder leaves to the pure loader
    if "<<" in text:
        assert_left_to_pure_loader(text)
    else:
        assert_built_as_pure(text)


@pytest.mark.parametrize(
    "text, root",
    [
        ("{a: 1, <<: {b: 2, a: 3}, c: 4}", {"b": 2, "a": 1, "c": 4}),
        ("x: &x {a: 1, b: 2}\ny: &y {b: 3, c: 4}\nz: {<<: [*x, *y], c: 5}\n", {"a": 1, "b": 2, "c": 5}),
        ("x: &x {a: 1}\ny: &y {b: 2}\nz: {<<: *x, <<: *y, b: 3}\n", {"a": 1, "b": 3}),
        ("x: &x {a: 1, <<: {c: 2}}\nz: {<<: *x}\n", {"c": 2, "a": 1}),
    ],
    ids=["inline", "list", "twice", "merged-merge"],
)
def test_merge_keys_follow_flatten_mapping(text, root):
    assert_left_to_pure_loader(text)
    loaded = document._load_yaml(text)
    assert loaded.get("z", loaded) == root


def test_nan_keys_are_one_key():
    # NaN is unequal to itself, but SafeConstructor builds every one as the same object
    assert_built_as_pure("{.nan: 1, .NaN: 2, .nan: 3}")
    assert len(document._load_yaml("{.nan: 1, .NaN: 2}")) == 1


def test_merged_values_stay_shared():
    root = document._load_yaml("x: &x {a: [1]}\ny: {<<: *x}\n")
    assert root["y"]["a"] is root["x"]["a"]


@pytest.mark.parametrize(
    "text",
    [
        "a: !custom 1\n",  # an unknown tag
        "a: !!set {b}\n",  # a tag on a collection
        "? [a]\n: b\n",  # a key that is not a scalar
        "a: &x [1]\n*x : b\n",  # an alias to a container as a key
        "a: *x\n",  # an undefined alias
        "a: &x 1\nb: &x 2\n",  # a duplicate anchor
        "a: =\n",  # the value tag SafeConstructor has no constructor for
        "a: <<\n",  # a merge key as a value
        "a: {<<: 1}\n",  # a merge of a scalar
        "a: {<<: {b: 1}}\n",  # a merge of a mapping
        "x: &x {a: 1}\ny: {<<: *x}\n",  # a merge of an aliased mapping
        "a: !!int x\n",  # a scalar its constructor refuses
        "a: 1\n---\nb: 2\n",  # a second document
        "a: ! 12\n",  # the non-specific tag
    ],
)
def test_what_the_builder_leaves_to_the_pure_loader(text):
    assert_left_to_pure_loader(text)


def test_merge_of_a_mapping_still_open_is_too_deep():
    # its pairs hold the path to the merging mapping, so the pure loader builds a cycle
    text = "&x {a: 1, b: {<<: *x}}\n"
    for loader in EVENT_LOADERS:
        with pytest.raises(document._Unhandled):
            document._build_tree(yaml.parse(text, Loader=loader))
    root = yaml.load(text, Loader=document._SpecLoader)
    assert root["b"]["b"] is root["b"]
    with pytest.raises(SpecSyntaxError, match="YAML nested too deeply"):
        parse_document(text)


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.yaml")), ids=lambda p: p.relative_to(FIXTURES).as_posix())
def test_fixture_files_load_equal_under_both_loaders(path):
    text = path.read_text(encoding="utf-8")
    try:
        pure(text)
    except yaml.YAMLError as exc:
        with pytest.raises(yaml.YAMLError) as err:
            document._load_yaml(text)
        assert str(err.value) == str(exc)
    else:
        assert_built_as_pure(text)


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
    with pytest.raises(SpecSyntaxError) as fast:
        parse_document(text)
    monkeypatch.setattr(document, "_LibyamlSpecLoader", document._SpecLoader)
    with pytest.raises(SpecSyntaxError) as pure:
        parse_document(text)
    assert message in str(fast.value)
    assert str(fast.value) == str(pure.value)
    assert (fast.value.line, fast.value.column) == (pure.value.line, pure.value.column)


@LIBYAML
def test_lone_surrogate_only_the_pure_loader_reads_is_a_syntax_error():
    # libyaml refuses an escaped lone surrogate; the pure loader reads it, but UTF-8 cannot write it
    text = 'a: "\\ud800"\n'
    with pytest.raises(yaml.YAMLError, match="invalid Unicode character escape code"):
        yaml.load(text, Loader=document._LibyamlSpecLoader)
    assert yaml.load(text, Loader=document._SpecLoader) == {"a": "\ud800"}
    with pytest.raises(SpecSyntaxError, match="U\\+D800"):
        parse_document(text)


@LIBYAML
def test_tab_after_colon_is_accepted():
    # YAML allows a tab as separation here; only the pure loader refuses it
    with pytest.raises(yaml.YAMLError, match="found character '\\\\t'"):
        yaml.load("a:\tb\n", Loader=document._SpecLoader)
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
        "!custom " + "[" * 100_000 + "]" * 100_000,
    ],
    ids=["flow-sequence", "single-pair-mappings", "block-sequence", "unclosed-flow-mapping", "unknown-tag"],
)
def test_nesting_past_libyaml_stack_is_syntax_error(text):
    with pytest.raises(SpecSyntaxError, match="YAML nested too deeply"):
        parse_document(text, format_hint="yaml")


@LIBYAML
def test_deep_broken_flow_text_is_refused_before_the_pure_loader():
    # libyaml refuses the text, and the pure loader's scanner would take time quadratic in its flow depth
    assert_refused_at_once("[" * 1000 + "x" + "]" * 999)


@LIBYAML
def test_deep_text_under_an_unknown_tag_is_refused_before_the_pure_loader():
    # the builder leaves the tag to the pure loader, but counts the depth first
    assert_refused_at_once("!custom " + "[" * 10_000 + "]" * 10_000)


def assert_refused_at_once(text):
    started = time.thread_time()
    with pytest.raises(SpecSyntaxError, match=f"^YAML nested too deeply: more than {MAX_DEPTH} levels$"):
        parse_document(text, format_hint="yaml")
    assert time.thread_time() - started < 0.1
