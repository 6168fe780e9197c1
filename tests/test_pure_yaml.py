"""The document, extraction and mining tests again, on the pure-Python YAML parser.

`parse_document` builds YAML trees from libyaml's events where PyYAML has it,
and from the pure-Python parser's where it does not; the other modules cover
the first case.
"""

import pytest

from test_bank import (  # noqa: F401
    test_corpus_mining_counts,
    test_duplicate_identities_dropped,
    test_empty_corpus_raises,
    test_entries_sorted_by_api_then_pointer,
    test_include_filter_limits_files,
    test_json_spec_with_non_rfc_number_is_skipped,
    test_mining_is_deterministic,
    test_save_load_round_trip,
    test_spec_nested_past_max_depth_is_skipped,
    test_spec_with_integer_over_digit_limit_is_skipped,
)
from test_document import *  # noqa: F401,F403
from test_extract import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("pure_yaml_loader")
