"""Output bytes pinned by sha256: a patch file, its report, its net, and a CLI patch.

A change to the coordinate layout or to the deflation and extraction
kernels must leave these files and arrays byte for byte as they are.  Every
pinned file is written from integers or from counts, so the hashes hold on
every supported numpy.  Each patch's uint8 classes and int32 apexes are
pinned apart from its file, so a change to deflation trips a pin whatever
the file format; the files are pinned in the v2 format (one ``class a0 a1
a2 a3`` line per half-tile).  The net's integer arrays are pinned the same
way; its float ``xy`` bits come from one float64 matrix product
(``_embed``), so that hash is kept apart from them.
"""

import hashlib

import numpy as np

from penrosenet.cli import main
from penrosenet.discrepancy import build_report, report_to_csv, report_to_json
from penrosenet.net import extract_net
from penrosenet.tiling import Square, generate_patch_covering, load_patch, save_patch

# the covering patch of Square(-37, 21, 256): its classes and apexes, and its file
COVERING_TILES = "61a75bc8de82aa5762975203de6f631c9e6de28384ee75426feb416cb4a63fc9"
COVERING_PATCH = "91943f97ce2497a6c63cab6ae35cb4cbd5c9d9b5895ca9a2e1f75ce4c810c97f"
REPORT_CSV = "b314026f695ea6dbf1cca3ce0c65f8544b6273ba5acdd4b0db9bd08908e510d0"
REPORT_JSON = "beab651ddca8a34d306382e76a771b3bff3c73ea89dcffe40fe6a41940b1875d"
# extract_net of the covering patch: tile_ids, ring and source_kinds; xy
NET_INTEGERS = "262d5150f626f8d6e90934fb5eadb1b0e2ea69b4b36bcb2b7ff286b94111f314"
NET_XY = "5dacbe3e40f9ac82048642331f1b3c4c4d3dae38725c0d83924b57918c843983"
# `generate --seed half-dart --rounds 12`: the loaded classes and apexes, and the file
HALF_DART_12_TILES = "287ce9b8c1466999f1915e529ec980b539e0d0e18763788f4e0112b3104677ac"
HALF_DART_12 = "9f6758e5f8bfd04de49ccf74b345752ba553f169ebfb468df02ea48db8348474"


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def arrays_sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def test_covering_patch_and_its_report(tmp_path):
    patch = generate_patch_covering(Square(-37, 21, 256))
    assert (patch.classes.dtype, patch.apexes.dtype) == (np.uint8, np.int32)
    assert arrays_sha256(patch.classes, patch.apexes) == COVERING_TILES
    save_patch(patch, str(tmp_path / "patch.txt"))
    assert sha256(tmp_path / "patch.txt") == COVERING_PATCH
    net = extract_net(patch)
    assert arrays_sha256(net.tile_ids, net.ring, net.source_kinds) == NET_INTEGERS
    assert arrays_sha256(net.xy) == NET_XY
    report = build_report(net, 4, 7)
    report_to_csv(report, str(tmp_path / "report.csv"))
    report_to_json(report, str(tmp_path / "report.json"))
    assert sha256(tmp_path / "report.csv") == REPORT_CSV
    assert sha256(tmp_path / "report.json") == REPORT_JSON


def test_generated_half_dart_patch(tmp_path, capsys):
    path = tmp_path / "dart.txt"
    assert main(["generate", "--seed", "half-dart", "--rounds", "12", "--out", str(path)]) == 0
    patch = load_patch(str(path))
    assert (patch.classes.dtype, patch.apexes.dtype) == (np.uint8, np.int32)
    assert arrays_sha256(patch.classes, patch.apexes) == HALF_DART_12_TILES
    assert sha256(path) == HALF_DART_12
