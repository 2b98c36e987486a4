"""CLI coefficient artifacts pinned byte for byte.

Rational artifacts are exact, so their sha256 is the same on every machine;
``coeffs-12-float`` needs only correctly rounded float operations, so it is
too.  A refactor of the coefficient engine or of the exact level sums must
leave every one unchanged.  ``tools/golden_hashes.py`` hashes the full artifact list, float ones
included, for comparing two checkouts on one machine.
"""

import hashlib

import pytest

from levychaos.cli import main

G = "gamma:a=10,b=20"
MIXED = "brownian:sigma=1/10+gamma:a=3,b=7"

GOLDEN = {
    "coeffs-json": (
        ["coeffs", "--n", "8", "--mode", "rational", "--model", G],
        "faa9a257e15fc2d4e175ade2271df6a292bed322e5ebe451ff662cfcb5065757",
    ),
    "coeffs-csv": (
        ["coeffs", "--n", "8", "--mode", "rational", "--format", "csv", "--model", G],
        "e71074638767224ac34c6b7cf0ad5f17a3033cfa1eef38d77d3e65c5731f7226",
    ),
    "coeffs-12-float": (
        ["coeffs", "--n", "12", "--model", G],
        "fe6466580a5e2725035a4a3b98cb390dd88ca754494cf2c7d8c8367623cc79c2",
    ),
    "expand-10-y-rational-csv": (
        ["expand", "--n", "10", "--mode", "rational", "--format", "csv", "--model", MIXED],
        "ec5e1ee1787710e368643246803057bd843e1339b08e42196a5908bd5f2e3969",
    ),
    "expand-h": (
        ["expand", "--n", "6", "--basis", "h", "--mode", "rational", "--model", G],
        "6c5285bc92b87c86ce1dadafb80df6797221535e3760aa9075596a4d48a89a04",
    ),
    "expand-jamshidian": (
        ["expand", "--n", "6", "--basis", "jamshidian"],
        "c255244ec56b03b844d262c584015f7ce3eecd43bd2ad4d579f87850d2a24516",
    ),
    "exact-verify": (
        ["exact-verify", "--n", "6", "--count", "30"],
        "b0636b0efbf450dec3d371c4aa2e37dbe81a8c9be9cade8c73d609cab62d44d0",
    ),
    "ortho": (
        ["ortho", "--order", "6", "--mode", "rational", "--model", G],
        "55aa1112c78b3eb51ad22ecc1971ec777a0f2eb3f593c204b377cef50bc42621",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rational_artifact_bytes(name, capsys):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
