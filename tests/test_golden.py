"""Byte identity of sweep outputs across changes to the simulator.

Each pinned digest is the sha256 of the rows.csv that ``crsched run``
writes for a config at ``--max-slots 10000``, so every point runs at most
10,000 slots. The two shipped configs stop at their first convergence
check; the inline fading config covers truncated-Poisson arrivals, faded
direct links (a rate that varies per slot and carries several packets) and
the literal phi mode. Any change to a simulated number, float evaluation
order included, moves a digest. Update a digest only for a change that is
meant to alter results, and say why where the change is recorded.
"""

import pytest

from crsched import cli
from crsched.sweep import ROWS_FILENAME, file_sha256

from conftest import shipped_config

FADING_LITERAL_CFG = """\
[system]
n_sus = 3
i_avg = 0.3
max_slots = 10000
check_interval = 2000
phi_mode = literal

[su1]
d = 2.0
arrivals = poisson cap=3
direct = rayleigh mean=2.0
interference = rayleigh mean=0.4

[su2]
d = 4.0
arrivals = poisson cap=4
direct = rayleigh mean=3.0
interference = rayleigh mean=0.2

[su3]
d = 6.0
arrivals = poisson cap=2
direct = rayleigh mean=1.0
interference = deterministic value=0.3

[sweep]
lambda_min = 0.1
lambda_max = 0.7
lambda_step = 0.2
schedulers = proposed, proposed-nonidling, maxweight
seeds = 5
"""

ROWS_SHA256 = {
    "table1.cfg": "f2f2140743ae71a71dc7d4b1daa05a580acb4d797d7d88b904694d319d684267",
    "binding.cfg": "1a4278ef2210d58694a20457d73792468ccbf1f4d8696b5ff2c267d3414fbd6e",
    "fading-literal": "b073868a4c23b466ef6b0bb0c0908881f22d1deef8538112f8171152a34e746a",
}


@pytest.mark.parametrize("name", sorted(ROWS_SHA256))
def test_rows_csv_matches_pinned_digest(name, tmp_path):
    if name.endswith(".cfg"):
        config = shipped_config(name)
    else:
        config = tmp_path / f"{name}.cfg"
        config.write_text(FADING_LITERAL_CFG)
    out = tmp_path / "out"
    code = cli.main([
        "run", "--config", str(config), "--out", str(out),
        "--jobs", "1", "--max-slots", "10000",
    ])
    assert code == 0
    assert file_sha256(out / ROWS_FILENAME) == ROWS_SHA256[name]
