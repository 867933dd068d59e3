"""The README's Library example runs and shows what its comments say."""

import re
from pathlib import Path

from ssmspec.classify import Outcome

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block(capsys):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    claims = {
        "# Outcome.SPECTRAL": ns["v"].outcome is Outcome.SPECTRAL,
        "# True, exact arithmetic": ns["v"].certificate.verify() is True,
        "# ['NOdd', 'OK', 'TDivisibleByBeta']": ns["reasons"] == ["NOdd", "OK", "TDivisibleByBeta"],
        "# 1/2*odd u 1/16*odd": str(ns["zs"]) == "1/2*odd u 1/16*odd",
        "# 256 sorted points": len(ns["lam"]) == 256 and list(ns["lam"]) == sorted(ns["lam"]),
        "# <= 1 + 1e-9": ns["q"].max() <= 1 + 1e-9,
    }
    for comment, holds in claims.items():
        assert comment in block and holds, comment
