"""Byte identity of sweep outputs and of the slot kernels' text across
changes to the simulator.

Each pinned rows digest is the sha256 of the rows.csv that ``crsched run``
writes for a config at ``--max-slots 10000``, so every point runs at most
10,000 slots. The two shipped configs stop at their first convergence
check; the inline fading config covers truncated-Poisson arrivals, faded
direct links (a rate that varies per slot and carries several packets) and
the literal phi mode. Any change to a simulated number, float evaluation
order included, moves a digest. Update a rows digest only for a change
that is meant to alter results, and say why where the change is recorded.
"""

import hashlib
import linecache
from itertools import combinations, product

import pytest

from crsched import cli
from crsched.engine import PHI_ACTUAL, PHI_LITERAL, SCHEDULER_NAMES, SchedulerKind, _kernel, _UserShape
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


# sha256 of the concatenated text of every kernel in KERNEL_SHAPES order.
KERNEL_TEXT_SHA256 = "29833b4bdd2afaa032bc8c2d3d3c7a3e46e19bcbc2a8ebf46141fa202ee0cd11"

# Every (user shapes, rule, phi mode) of one and two users: 20 shape tuples
# under 6 kinds, 120 kernels.
KERNEL_SHAPES = [
    (shapes, SchedulerKind(name, mode))
    for users in (1, 2)
    for shapes in product([_UserShape(unit, single) for unit in (True, False) for single in (True, False)],
                          repeat=users)
    for name in SCHEDULER_NAMES
    for mode in (PHI_ACTUAL, PHI_LITERAL)
]


# sha256 of the concatenated text of every kernel in SEALED_KERNELS order.
SEALED_KERNEL_TEXT_SHA256 = "5698007a33217d8b6c3a244531ffcc779e7dbef9b564a9672a3aa74089028e40"

# The idling rule's kernels of KERNEL_SHAPES in actual mode, with each
# nonempty set of their unit-link users sealed: 22 kernels.
SEALED_KERNELS = [
    (shapes, kind, sealed)
    for shapes, kind in KERNEL_SHAPES if kind == SchedulerKind("proposed", PHI_ACTUAL)
    for units in [[i for i, shape in enumerate(shapes) if shape.unit_link]]
    for size in range(1, len(units) + 1)
    for sealed in combinations(units, size)
]


def kernel_text_digest(kernels) -> str:
    """sha256 of the concatenated source of the kernels, as linecache holds
    it, each built from a tuple of _kernel's arguments."""
    digest = hashlib.sha256()
    for args in kernels:
        kernel = _kernel(*args)
        digest.update("".join(linecache.getlines(kernel.__code__.co_filename)).encode())
    return digest.hexdigest()


def test_kernel_text_matches_pinned_digest():
    """Every generated kernel's source, as linecache holds it, hashes to the
    pinned digest, so a refactor of the template or of the kernel builder
    that claims to leave the slot loop alone is checked to. Update the
    digest only for a change that is meant to alter kernel text, and say
    why in CHANGES.md."""
    assert len(KERNEL_SHAPES) == 120
    assert kernel_text_digest(KERNEL_SHAPES) == KERNEL_TEXT_SHA256


def test_sealed_kernel_text_matches_pinned_digest():
    """The same pin over the sealed variants, whose text shares the
    template's and drops a sealed user's scoring and departure."""
    assert len(SEALED_KERNELS) == 22
    assert kernel_text_digest(SEALED_KERNELS) == SEALED_KERNEL_TEXT_SHA256
