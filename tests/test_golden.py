"""Byte identity of sweep outputs across changes to the simulator.

Each pinned digest is the sha256 of the rows.csv that ``crsched run``
writes for a shipped config at ``--max-slots 10000``, so every point runs
its first 10,000 slots and stops at the first convergence check. Any change
to a simulated number, float evaluation order included, moves a digest.
Update a digest only for a change that is meant to alter results, and say
why where the change is recorded.
"""

import pytest

from crsched import cli
from crsched.sweep import ROWS_FILENAME, file_sha256

from conftest import shipped_config

ROWS_SHA256 = {
    "table1.cfg": "f2f2140743ae71a71dc7d4b1daa05a580acb4d797d7d88b904694d319d684267",
    "binding.cfg": "1a4278ef2210d58694a20457d73792468ccbf1f4d8696b5ff2c267d3414fbd6e",
}


@pytest.mark.parametrize("name", sorted(ROWS_SHA256))
def test_rows_csv_matches_pinned_digest(name, tmp_path):
    code = cli.main([
        "run", "--config", shipped_config(name), "--out", str(tmp_path),
        "--jobs", "1", "--max-slots", "10000",
    ])
    assert code == 0
    assert file_sha256(tmp_path / ROWS_FILENAME) == ROWS_SHA256[name]
