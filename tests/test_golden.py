"""Byte pins of the exact layer's deterministic CLI output.

Each case runs one CLI command and compares the sha256 of its stdout with a
recorded value.  Only exact-layer text is pinned (scan tables, classify and
zeros JSON); float CSVs are not, since their last digits may move with numpy.
"""

import hashlib

import pytest

from ssmspec.cli import main

SCAN = ["scan", "--n-min", "2", "--cardinality"]
CASES = {
    "scan-card2": (
        [*SCAN, "2", "--digit-bound", "20", "--n-max", "32"],
        "c45407b48cc0152dbfe4914a9c276bcc4941ba7384637c322dd8155a49e54206",
    ),
    "scan-card3": (
        [*SCAN, "3", "--digit-bound", "20", "--n-max", "32"],
        "66073baf4578a3170f83f6450d711881d4f3a54819bbbf010165711e73c5f95d",
    ),
    "scan-card4": (
        [*SCAN, "4", "--digit-bound", "15", "--n-max", "24"],
        "e665aec6e54703f71ed5ccfcf5594f638de4acded1b1ddaa15e61200d4565ca6",
    ),
    "scan-card4-n64": (
        [*SCAN, "4", "--digit-bound", "15", "--n-max", "64"],
        "1284ab8ddf84069d2cbe46826b9e6bd2edbde4c137b157e45602239026930e3a",
    ),
    "scan-card3-json": (
        [*SCAN, "3", "--digit-bound", "9", "--n-max", "12", "--format", "json"],
        "e76b929e495d129df93f9ee4980e4607a8b48bd17cedefded52a52c04f4dffa4",
    ),
    "classify-dj": (
        ["classify", "--rho", "1/4", "--digits", "0,1,8,9", "--explain"],
        "6b6bbd7e6aa48cd8c374c24cf06376897c9253973d75973c2f4c76f65ec3bfd1",
    ),
    "classify-n-odd": (
        ["classify", "--rho", "1/3", "--digits", "0,2"],
        "b28bdfc67d7e06b39125f6fee179b269e0f07704eaf96f10e0b62986e41a6103",
    ),
    "classify-root": (
        ["classify", "--rho-root", "1,2,2", "--digits", "0,2"],
        "90fb6594408c4133057cbca3e0373bbe98ad8d0ff0ac16c3d339c0545e365aaf",
    ),
    "classify-weights": (
        ["classify", "--rho", "1/4", "--digits", "0,2", "--weights", "1/3,2/3"],
        "4276afe16390f21f7b3c0d91b92e4205353e8a3d72542de326edc5af21554b17",
    ),
    "classify-irrational": (
        ["classify", "--rho", "1/4", "--digits", "0,1,t,1+t"],
        "f0f59a129fb1d708e25beadc7117b9d06e47d38d4642cb2024269250daad0c50",
    ),
    "classify-0123-n12": (
        ["classify", "--rho", "1/12", "--digits", "0,1,2,3"],
        "2bf087012eb188528470920443809a98fdd1b86ad2b9e8538710604ca3530001",
    ),
    "classify-k2": (
        ["classify", "--rho", "1/4", "--digits", "0,1,32,33"],
        "e2b89ec11ec29f814b744153091f75ba70e178333d8ec28ff4d93268cb1aa561",
    ),
    "classify-k1-m3": (
        ["classify", "--rho", "1/12", "--digits", "0,3,8,11"],
        "718af061cd1fd67b06a66aa7977380ad9026c75591b1998cfc8e9ca485e2ddbf",
    ),
    "classify-large-n": (
        ["classify", "--rho", "1/4000004", "--digits", "0,1,2,3"],
        "d7931e287006e14e61de17092373e50633c6e2cccecb5490765b03bfa5934be6",
    ),
    "zeros-dj": (
        ["zeros", "0,1,8,9"],
        "eb94c3b53529d9f15556264d4363d7127e35244291ab99a7c139651c0986d739",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_is_pinned(name, capsys):
    argv, digest = CASES[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
