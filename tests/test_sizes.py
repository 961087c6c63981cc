"""Line ceilings per package (``benchmarks/sizes.json``): a package may
shrink freely; it grows only by a change that raises its ceiling."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CEILINGS = json.loads((ROOT / "benchmarks" / "sizes.json").read_text())["ceilings"]


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_package_stays_under_its_line_ceiling(name):
    path, pattern, ceiling = CEILINGS[name]
    root = ROOT / path
    files = root.rglob(pattern) if root.is_dir() else [root]
    lines = sum(len(f.read_text().splitlines()) for f in files)
    assert lines <= ceiling, f"{name}: {lines} lines over its ceiling {ceiling}"
