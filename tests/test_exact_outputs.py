"""Every exact output and witness stays byte-identical to the committed
fixture, whatever arithmetic computes it."""

from pathlib import Path

from .exact_outputs import dumps, outputs

FIXTURE = Path(__file__).resolve().parent / "data" / "exact_outputs.json"


def test_exact_outputs_match_the_fixture_byte_for_byte():
    assert dumps(outputs()).encode() == FIXTURE.read_bytes()
