"""Golden outputs: campaign reports and rendered frames, byte for byte.

``golden.json`` beside this file holds the JSON report of every
``SUPPORTED`` campaign at 50 trials for seeds 0 and 7, and the sha256 of
the SVG that ``ccplane render frame --seed S`` writes for S = 0..9.  A
change that is meant to keep every output keeps these; a change that
moves a report rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and lists each moved report in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from ccplane.cli import main
from ccplane.verify import SUPPORTED, json_document, report_record, run_verification

GOLDEN = Path(__file__).with_name("golden.json")
TRIALS = 50
SEEDS = (0, 7)
FRAME_SEEDS = range(10)

CAMPAIGNS = [
    (theorem, geometry, seed)
    for theorem, geometries in SUPPORTED.items()
    for geometry in geometries
    for seed in SEEDS
]


def campaign_key(theorem, geometry, seed) -> str:
    return f"{theorem}/{geometry.value}/{seed}"


def report_document(theorem, geometry, seed) -> str:
    return json_document(report_record(run_verification(theorem, geometry, TRIALS, seed)))


def frame_digest(seed: int, directory: Path) -> str:
    path = directory / f"frame-{seed}.svg"
    assert main(["render", "frame", "--seed", str(seed), "--svg", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_campaign(golden):
    assert sorted(golden["reports"]) == sorted(campaign_key(*c) for c in CAMPAIGNS)
    assert sorted(golden["frame_svg_sha256"]) == sorted(str(s) for s in FRAME_SEEDS)


@pytest.mark.parametrize("theorem,geometry,seed", CAMPAIGNS,
                         ids=[campaign_key(*c) for c in CAMPAIGNS])
def test_report_is_unchanged(golden, theorem, geometry, seed):
    key = campaign_key(theorem, geometry, seed)
    assert report_document(theorem, geometry, seed) == golden["reports"][key]


@pytest.mark.parametrize("seed", FRAME_SEEDS)
def test_frame_svg_is_unchanged(golden, seed, tmp_path):
    assert frame_digest(seed, tmp_path) == golden["frame_svg_sha256"][str(seed)]


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data = {
            "reports": {campaign_key(*c): report_document(*c) for c in CAMPAIGNS},
            "frame_svg_sha256": {str(s): frame_digest(s, Path(tmp)) for s in FRAME_SEEDS},
        }
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
