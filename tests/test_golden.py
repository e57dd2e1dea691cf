"""Golden outputs: sha256 digests of fixed-seed CLI outputs.

The study table and the `learn` outputs are the contract of a refactor
that keeps the arithmetic: they must stay byte-identical.  The digests were
recorded from these exact runs; a change that moves any of them has changed
what the program computes.
"""

import hashlib

import pytest

from relqual.cli import EXIT_OK, main
from relqual.data import write_numeric_csv
from relqual.gaussian import simulate
from relqual.simstudy import SEARCH_KINDS, default_truth


def run(argv):
    return main([str(a) for a in argv])


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


SIMSTUDY_DIGESTS = {
    None: "e655c6d72a4c42fe514c6bfc20955d7c44708e2081563622b2c66c6630ac0b5f",
    "HYBRID-GS": "38ea20f65d336409670459efa476ec9cd7fed963aaf7ceda5d532df4a01841d9",
}


@pytest.mark.parametrize("methods", list(SIMSTUDY_DIGESTS))
def test_simstudy_table_is_byte_identical(tmp_path, methods):
    argv = ["simstudy", "--replicates", 2, "--boot-samples", 10, "--restarts", 3,
            "--seed", 4, "--out", tmp_path]
    if methods is not None:
        argv += ["--methods", methods]
    assert run(argv) == EXIT_OK
    assert digest(tmp_path / "simstudy.csv") == SIMSTUDY_DIGESTS[methods]


LEARN_DIGESTS = {
    "hc": ("815842cf21e28fe70e5f5492febd8644a123bd190194d93cf6392d4d05044fc6",
           "e41c68e14c0c44aca490d10bbe319aeaec9d03b8660cdcef3b9260e211bc83c4"),
    "map": ("f22d1ba9962c8f903207dbc3e3ee4ebb79e914555f95a136171c6d13220865b2",
            "b101f0111a4c8e9730c8d71c5fc8e0cb4e8347108d3f8dfb4e9307cda3cae755"),
    "hybrid-gs": ("cf7301b0616c83b948d9581c5241cae337236681504927fcf0e9b3b40a1ac448",
                  "b101f0111a4c8e9730c8d71c5fc8e0cb4e8347108d3f8dfb4e9307cda3cae755"),
    "hybrid-mmpc": ("0136b7fbcbd13db7010259f46f82de5dabbfc45ef71d8fe793c33d00ca0f46ab",
                    "b101f0111a4c8e9730c8d71c5fc8e0cb4e8347108d3f8dfb4e9307cda3cae755"),
}


@pytest.mark.parametrize("method", SEARCH_KINDS)
def test_learn_outputs_are_byte_identical(tmp_path, method):
    data = tmp_path / "release.csv"
    write_numeric_csv(data, simulate(default_truth(), 150, seed=12))
    out = tmp_path / "out"
    assert run(["learn", data, "--method", method, "--boot-samples", 20,
                "--restarts", 4, "--threshold", "0.6", "--seed", 8,
                "--out", out]) == EXIT_OK
    assert (digest(out / "arcs.csv"), digest(out / "network.json")) == \
        LEARN_DIGESTS[method]
