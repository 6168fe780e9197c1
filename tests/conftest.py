import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
if str(TESTS) not in sys.path:
    sys.path.insert(0, str(TESTS))

FIXTURES = TESTS / "fixtures"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return FIXTURES / "corpus"


@pytest.fixture(scope="session")
def running_dir() -> Path:
    return FIXTURES / "running"


@pytest.fixture(scope="session")
def running_bank(running_dir):
    from icicl.bank import load_bank

    return load_bank(running_dir / "bank.jsonl")


@pytest.fixture()
def running_doc(running_dir):
    from icicl.document import parse_document

    return parse_document((running_dir / "spec.yaml").read_bytes())


@pytest.fixture()
def currency_param(running_doc):
    from icicl.extract import extract_parameters

    (param,) = extract_parameters(running_doc)
    return param


@pytest.fixture(scope="session")
def goldens_dir(running_dir) -> Path:
    return running_dir / "goldens"


@pytest.fixture()
def pure_yaml_loader(monkeypatch):
    """Build YAML trees from the pure-Python parser's events, as where PyYAML was built without libyaml."""
    import yaml

    from icicl import document

    monkeypatch.setattr(document, "_LibyamlLoader", yaml.SafeLoader)
