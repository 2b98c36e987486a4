"""Every golden CLI artifact, byte for byte, against ``tools/golden.sha256``.

The golden list and its runner live in ``tools/golden_hashes.py``.  Grid
artifacts depend on numpy's samplers, so a failure shows the Python and numpy
versions the manifest was taken with beside the running ones.
"""

import pytest
from conftest import TOOL, TOOLS

HEADER, *MANIFEST = (TOOLS / "golden.sha256").read_text(encoding="utf-8").splitlines()


def _entry(line: str) -> str:
    return line.split("  ", 1)[1].removesuffix(".out")


def test_manifest_lists_every_entry_in_order():
    assert list(dict.fromkeys(map(_entry, MANIFEST))) == list(TOOL.GOLDEN)


@pytest.mark.parametrize("name", TOOL.GOLDEN)
def test_artifact_bytes(name, tmp_path):
    expected = [line for line in MANIFEST if _entry(line) == name]
    got = TOOL.run(name, str(tmp_path))
    assert got == expected, f"golden entry {name} differs\nmanifest: {HEADER}\nthis run: {TOOL.header()}"
