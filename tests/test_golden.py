"""Byte pins of the exact layer's deterministic CLI output.

Each case runs one CLI command and compares the sha256 of its stdout with a
recorded value, and of its stderr when a third value is given (the
`--explain` text); otherwise stderr must be empty.  Every command exits 0
except those named in EXIT_CODES.  Only exact-layer text is
pinned (scan tables, classify and zeros JSON, explanations); float CSVs are
not, since their last digits may move with numpy.
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
    "scan-card4-json": (
        [*SCAN, "4", "--digit-bound", "15", "--n-max", "24", "--format", "json"],
        "a51ab3cd203ff3072f95310f38d4878bbeb85bbaa5e67e20e5d2f069e3d6b454",
    ),
    "scan-card3-json": (
        [*SCAN, "3", "--digit-bound", "9", "--n-max", "12", "--format", "json"],
        "e76b929e495d129df93f9ee4980e4607a8b48bd17cedefded52a52c04f4dffa4",
    ),
    "classify-dj": (
        ["classify", "--rho", "1/4", "--digits", "0,1,8,9", "--explain"],
        "6b6bbd7e6aa48cd8c374c24cf06376897c9253973d75973c2f4c76f65ec3bfd1",
        "266fb95ab420f172237ac463cc2bd59bc59dbca64d8bad26c94d18912577454d",
    ),
    "classify-dirac": (
        ["classify", "--rho", "2/5", "--digits", "0", "--explain"],
        "d5909b8fc38e644d4bcabefcf4a54d1747617543489930b14f2e7e51232d26ed",
        "d8d8a686a1bf62f7d1fb311576b5be8042e9821fc97cbebd00d9e82df2bfd85b",
    ),
    "classify-card3": (
        ["classify", "--rho", "1/6", "--digits", "0,1,2", "--explain"],
        "e86be32bee712da0cac7c4a19100804483c01f25cfa189eeb4e90969381c7a07",
        "0372e7f21200186d444a35131212f51888c932d1efb468cbee531063aa47d5f9",
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
    "classify-irrational-explain": (
        ["classify", "--rho", "1/4", "--digits", "0,1,t,1+t", "--explain"],
        "f0f59a129fb1d708e25beadc7117b9d06e47d38d4642cb2024269250daad0c50",
        "4bb007c6bb283de7cc8867bfb8c32844df7e612f0b930a90136ab6bb200c8447",
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
    "classify-card4-empty": (
        ["classify", "--rho", "1/4", "--digits", "0,1,3,5", "--explain"],
        "b0ff0edca6663005bfea26718d27978814fa497915666f784190d377ca42b0b7",
        "b4a1e38b5e3c938cb6e0bd73d6b0df8bd8b545a19bb1eb4dd51d2c6dcf594f59",
    ),
    "classify-card3-residues": (
        ["classify", "--rho", "1/3", "--digits", "0,1,4", "--explain"],
        "e81e076f1793683c82c74443da81cc36f1efe89ef6728f2f6b3eb5322a1eb681",
        "9d6971cbf636da420af76d1d5e4979f17333057a8925bc02402d6ff4e985f115",
    ),
    "classify-card3-irrational": (
        ["classify", "--rho", "1/3", "--digits", "0,1,t", "--explain"],
        "27b62366ab09993f0665336608c80e8930abe34396ba8e2c15615092ea60e016",
        "68624c1e6ffb10f1c230c9706b7b7bd2330babf22606986fa4410f1f8171e104",
    ),
    "classify-card3-n-not-3": (
        ["classify", "--rho", "1/4", "--digits", "0,1,2", "--explain"],
        "554f9cc8ce7e7bea22342b158b143ae3e8a9f6c63a60284d40c9100a29a51cfb",
        "4022a113b472c5202a692c730d35e45f66edf40439bc6e54b2a731fddd159131",
    ),
    "classify-card4-n-odd": (
        ["classify", "--rho", "1/3", "--digits", "0,1,8,9", "--explain"],
        "eb64a50b0e4736554e141aea7e79225a5e82ca10acd4d26dc8791b0822aa9818",
        "32a5a891616b1ad00219c1c7b2450dec0291713ab604fe7ac71dd59de40625ce",
    ),
    "classify-t-distinct": (
        ["classify", "--rho", "1/4", "--digits", "0,1,2,5", "--explain"],
        "41f2e62a76c8ae816088dd7d42b51e9edd287d99b3d5ab104a4004ee26475a73",
        "8bd6b3142dedf03e3c7a53f50eaddc00a823717a9ef7bc5f8815bb6dc963b333",
    ),
    "classify-t-divisible": (
        ["classify", "--rho", "1/8", "--digits", "0,1,8,9", "--explain"],
        "d6bba6e67fdf03807b6a741628b8bcd588513b06eb4e94ec0cd254eacc74b3c0",
        "e73e02771c89b2319118bd314f2e7a0e90a766aa5d77a393376f16418ac53226",
    ),
    "classify-card2-ok": (
        ["classify", "--rho", "1/4", "--digits", "0,2", "--explain"],
        "1f75fba4b3ecc6b720c8eb74c199d385a650e1d59d8e2a2d263fb3972d34295a",
        "769ed13e382941aa9dbed628eedcd59b86721611fb02493b2a2297757cc99e12",
    ),
    "classify-rho-not-reciprocal": (
        ["classify", "--rho", "2/5", "--digits", "0,1,2,3", "--explain"],
        "13eaa77972975293eeb4d283551ad513d694e77c49f114fbea6e69466fdb8f22",
        "36bcaa57e9a07b05bd9338673d4afbc54bc6ea3ae86d5326563773dbe1062900",
    ),
    "classify-card4-weights": (
        ["classify", "--rho", "1/4", "--digits", "0,1,8,9", "--weights", "1/8,1/8,1/4,1/2", "--explain"],
        "c02d4f954a6298ea725f0535145f1a6df6bd0a021ee0aa2db3641a11fd67bddf",
        "b4a08eea994ee38265d381779877420bed3bea610af9a8ff0ab8aabfb84b0fe0",
    ),
    "classify-five-digits": (
        ["classify", "--rho", "1/5", "--digits", "0,1,2,3,4", "--explain"],
        "301cf6fe95cb8eef0c40fe2acef183fb8d9404ce8bd497ebd65891ae322d89e4",
        "675cff7a8fe6119b37b680efddd2dcc097bfedbe7b32cd2981422aa77ef1e01e",
    ),
    "zeros-dj": (
        ["zeros", "0,1,8,9"],
        "eb94c3b53529d9f15556264d4363d7127e35244291ab99a7c139651c0986d739",
    ),
    "zeros-card3": (
        ["zeros", "0,1,2"],
        "10650a47c0b3750e87281ee9cd2c2fdb89a47a9d2da402fa7d6bb4897591462b",
    ),
}

# Unsupported verdicts still print their JSON, and exit 2.
EXIT_CODES = {"classify-five-digits": 2}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_is_pinned(name, capsys):
    argv, digest, *err_digest = CASES[name]
    assert main(argv) == EXIT_CODES.get(name, 0)
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if err_digest:
        assert hashlib.sha256(err.encode()).hexdigest() == err_digest[0]
    else:
        assert err == ""
