"""tools/fingerprint.py, the byte-identity check: its line format, and its
values on the environment they were recorded on."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bohrcheck.serialize import THEOREMS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"

#: The environment line the pinned values were recorded on (stderr).
PINNED_ENV = "numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0"

#: stdout of ``fingerprint.py --trials 3`` as recorded on PINNED_ENV. Any
#: change to these bytes is a change of verdicts, reports or digests.
PINNED = [
    "bohr seed=7 trials=3 62b265418874fb99caf8bc8932e4c9a86074a920c3d4803a3f6369c035b93b0c",
    "vasic seed=7 trials=3 4502936084cc3583d91910b15914cc8df9094f8731cff2b51fd45379c7ad244c",
    "jensen-vec seed=7 trials=3 3cf5853e03a59cf56b07fe807f682f2361640281abf9d78e2d5dc7f069924b71",
    "jensen-map seed=7 trials=3 991e8a5f4d63f3a6555e35cd65c8c4535b5043a0a7be564edb4934784ec7a7b3",
    "thm1 seed=7 trials=3 84f32d958fa4548ad2a4f274b67f9ea7536503b0484ef657d69d9a7692aaad88",
    "cornew seed=7 trials=3 7fe6b8c6086bb73bcaebe88213966cde20bb729aca93cb6ecb568d325ebb2468",
    "cor45 seed=7 trials=3 d7ee5acb6b2a4b1f3969aea4cf7bb57e47670c882d7aedc42f9e94ca54f4ff11",
    "zh seed=7 trials=3 4726e514fdc35a5ba6d5fc55542c2c2e3a0565cfe1828354a79a822836c0b332",
    "prop-r2 seed=7 trials=3 0b35f31191ed90669e325eaf31b61800b5948af77983bc84209b9c11f5f8c2df",
    "sumsq seed=7 trials=3 3ff802855165f5e766e3298a8f552303b3e70e4c50197d6167932834d5eaf1ae",
    "inc-convex seed=7 trials=3 49f323a88e9d0fd2e7207ba58d1e847a908150cc51a99cce32ecba9b0eab28ec",
    "bohr seed=42 trials=3 10cac3b6bb5dd16f80d594b12dfdc83c881c4df0c558371f14e87108a4469180",
    "vasic seed=42 trials=3 5a3029b5932d23fb31c2b56c583da6d42bc2ba0c5fb4f0e06a1c39b5373d3815",
    "jensen-vec seed=42 trials=3 b1f841e13aa8344ecbbbdcd315398876f7169c821f0d4a741c29b265fbd66698",
    "jensen-map seed=42 trials=3 a52a58e8776cc8b2cee504f862bac045c6a94d572ee8ef4cc53f41d1cbe8a882",
    "thm1 seed=42 trials=3 7d361ada51b3306cc4df3d4fd4f14aaa4b413e88a5b8b24f501c3f081bfdc0cd",
    "cornew seed=42 trials=3 993e0cefe168837ecc10b043d12dc89d846164df4b38ac13a000097f649a58f3",
    "cor45 seed=42 trials=3 fb646e04d4f662579685ab0cfd881fddcb14be4e350d532df8694aa255ae5d70",
    "zh seed=42 trials=3 029180f203a396fdbe2bfa7755ed9a427971295248512456a09dd4e747162873",
    "prop-r2 seed=42 trials=3 159eb51d6949f190b17333190a9f93e5907c2c9915af7f6638e83a11950d7db8",
    "sumsq seed=42 trials=3 5ae33b3e38b2bddeec3c22b15f29c588323d46901d0637ab54912f39ca1a2edf",
    "inc-convex seed=42 trials=3 6bee8678335285cc41a0757761686f6771a1c7c00c3f20efc82f5c92fda190cb",
    "cor45 seed=5 trials=40 rhs_scale=0.4 artifacts=14 353c71470d9bda978fefbd02abbd6d57b968a87b58c98eef3fb11cf8a3132ee0",
    "demo_table af807e9d7721dc1f46489d2570d9e3cb4ccfdf2ec97a15de6652daf564b9584f",
    "cp specs=300 424013287768cfc9f4ce1b8b46a160ea94e5d789b8726bf8d80ff500c02da296",
]


def _tool(*flags):
    return subprocess.run(
        [sys.executable, str(TOOL), "--trials", "3", *flags],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )


# The tool starts once per output form, for every test of this module.
@pytest.fixture(scope="module")
def plain():
    return _tool()


@pytest.fixture(scope="module")
def masked():
    return _tool("--mask-digests")


def test_fingerprint_prints_one_sha256_per_output(plain):
    lines = plain.stdout.splitlines()
    expected = [f"{t} seed={seed} trials=3" for seed in (7, 42) for t in THEOREMS]
    expected += ["cor45 seed=5 trials=40 rhs_scale=0.4 artifacts=14", "demo_table", "cp specs=300"]
    assert [line.rsplit(" ", 1)[0] for line in lines] == expected
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines)
    # Seeds 7 and 42 draw different instances, so their reports differ.
    assert len({line.rsplit(" ", 1)[1] for line in lines}) == len(lines)


def test_environment_goes_to_stderr_only(plain):
    # stdout holds fingerprint lines only (checked above); the numpy and
    # BLAS versions that explain a cross-machine mismatch go to stderr.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    expected = f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"
    assert plain.stderr.splitlines() == [expected]


def test_mask_digests_changes_only_outputs_that_carry_digests(plain, masked):
    plain, masked = plain.stdout.splitlines(), masked.stdout.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in masked] == [line.rsplit(" ", 1)[0] for line in plain]
    # Every report carries digests; the demo table and the CP line carry none.
    assert [a == b for a, b in zip(plain, masked)] == [False] * (len(plain) - 2) + [True, True]


def test_fingerprint_values_are_pinned(plain):
    if plain.stderr.splitlines() != [PINNED_ENV]:
        pytest.skip(f"values pinned on {PINNED_ENV}, not on {plain.stderr.strip()}")
    assert plain.stdout.splitlines() == PINNED
