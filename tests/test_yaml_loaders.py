"""libyaml against the pure-Python loader: equal trees, the same errors, no crash on deep input."""

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

pytestmark = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")


def typed(text, loader):
    """The loaded tree's repr, which tells 1 from 1.0, True and "1"."""
    return repr(yaml.load(text, Loader=loader))


def depth(node):
    if isinstance(node, dict):
        node = list(node.values())
    return 1 + max(map(depth, node), default=0) if isinstance(node, list) else 0


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
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text() | st.integers() | DATE_LIKE, kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(tree=TREES, flow=st.booleans())
def test_dumped_trees_load_equal_under_both_loaders(tree, flow):
    text = yaml.safe_dump(tree, default_flow_style=flow, allow_unicode=True)
    assert typed(text, document._LibyamlSpecLoader) == typed(text, document._SpecLoader)
    assert document._nesting_bound(text) >= depth(tree)


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.yaml")), ids=lambda p: p.relative_to(FIXTURES).as_posix())
def test_fixture_files_load_equal_under_both_loaders(path):
    text = path.read_text(encoding="utf-8")
    try:
        expected = typed(text, document._SpecLoader)
    except yaml.YAMLError:
        pytest.raises(yaml.YAMLError, typed, text, document._LibyamlSpecLoader)
    else:
        assert typed(text, document._LibyamlSpecLoader) == expected


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


def test_lone_surrogate_only_the_pure_loader_reads_is_a_syntax_error():
    # libyaml refuses an escaped lone surrogate; the pure loader reads it, but UTF-8 cannot write it
    text = 'a: "\\ud800"\n'
    with pytest.raises(yaml.YAMLError, match="invalid Unicode character escape code"):
        yaml.load(text, Loader=document._LibyamlSpecLoader)
    assert yaml.load(text, Loader=document._SpecLoader) == {"a": "\ud800"}
    with pytest.raises(SpecSyntaxError, match="U\\+D800"):
        parse_document(text)


def test_tab_after_colon_is_accepted():
    # YAML allows a tab as separation here; only the pure loader refuses it
    with pytest.raises(yaml.YAMLError, match="found character '\\\\t'"):
        yaml.load("a:\tb\n", Loader=document._SpecLoader)
    assert parse_document("a:\tb\n").root == {"a": "b"}


# libyaml builds nodes by C recursion: without the nesting guard each of these ends the process
@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, "[a: " * 50_000 + "x" + "]" * 50_000, "- " * 100_000 + "x\n", "{a: " * 100_000],
    ids=["flow-sequence", "single-pair-mappings", "block-sequence", "unclosed-flow-mapping"],
)
def test_nesting_past_libyaml_stack_is_syntax_error(text):
    with pytest.raises(SpecSyntaxError, match="YAML nested too deeply"):
        parse_document(text, format_hint="yaml")


def test_deep_broken_flow_text_is_refused_before_the_pure_loader():
    # libyaml refuses the text, and the pure loader's scanner would take time quadratic in its flow depth
    text = "[" * 1000 + "x" + "]" * 999
    started = time.thread_time()
    with pytest.raises(SpecSyntaxError, match=f"^YAML nested too deeply: more than {MAX_DEPTH} levels$"):
        parse_document(text, format_hint="yaml")
    assert time.thread_time() - started < 0.1
