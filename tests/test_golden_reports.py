"""Structured reports of the bundled corpus are pinned byte for byte.

``golden_reports.json`` holds the SHA-256 of ``emit_report(..., "structured")``
for every bundled fixture over each field.  A change to the exact core that
alters any printed dimension, status or witness fails here.  Re-record the
digests only when a report is meant to change, and say why in the change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from partialskew.report import emit_report
from partialskew.scenarios import bundled_fixtures, fixture_path, run_scenario

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
FIELDS = ("q", "fp:5", "fp:2")


def test_golden_set_covers_the_corpus():
    assert sorted(GOLDEN) == bundled_fixtures()
    assert all(sorted(GOLDEN[name]) == sorted(FIELDS) for name in GOLDEN)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_structured_report_digest(name, field):
    text = emit_report(run_scenario(fixture_path(name), field_override=field),
                       "structured")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name][field]
