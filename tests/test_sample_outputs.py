"""Every Monte Carlo estimate and draw stays bit-identical to the committed
fixture, whatever numpy layout computes it."""

import json
from pathlib import Path

from .sample_outputs import dumps, outputs

FIXTURE = Path(__file__).resolve().parent / "data" / "sample_outputs.json"


def test_sample_outputs_match_the_fixture_bit_for_bit():
    got, pinned = outputs(), json.loads(FIXTURE.read_text())
    # compared field by field first, so a failure names the estimate that moved
    assert got["estimates"] == pinned["estimates"]
    assert got["sample_crp"] == pinned["sample_crp"]
    assert dumps(got).encode() == FIXTURE.read_bytes()
