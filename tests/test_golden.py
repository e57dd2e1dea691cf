"""Golden outputs: sha256 digests of fixed-seed CLI outputs.

The study table, the `learn` outputs and the `rf` outputs are the contract
of a refactor that keeps the arithmetic: they must stay byte-identical.
The codes and cut points of `discretize` are pinned the same way.
The digests were recorded from these exact runs; a change that moves any
of them has changed what the program computes.
"""

import hashlib

import numpy as np
import pytest

from relqual.cli import EXIT_OK, main
from relqual.dag import VariableSet
from relqual.discretize import METHODS, DiscretizationSpec, discretize
from relqual.data import Dataset, write_numeric_csv
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


def write_rf_table(path):
    """Predictors with repeated values (one rounded column) and an exact
    copy of another, so split scans meet equal neighbours and tied
    reductions between features."""
    rng = np.random.default_rng(21)
    n = 90
    x1 = rng.standard_normal(n)
    coarse = np.round(rng.standard_normal(n), 1)
    noise = rng.standard_normal(n)
    y = 2 * x1 - coarse + 0.5 * rng.standard_normal(n)
    rows = np.column_stack([x1, coarse, coarse.copy(), noise, y])
    write_numeric_csv(path, Dataset(VariableSet(["x1", "coarse", "copy", "noise", "y"]),
                                    rows))


RF_DIGESTS = {
    "tune.csv": "2b24165a2bc5b04a56bcd342389509fab751e6753e3d0da7079bb4cf79c8c061",
    "importance.csv": "69601f789a6d43861da7866aa8c41d91a13f3da83922c1ad3ea868bbc6db7137",
    "ablate.json": "bdf167b45120dad98e0fe0d2a75a5ce9477b742d3f9172daa152a2ff0b314c1e",
}


def test_rf_outputs_are_byte_identical(tmp_path):
    data = tmp_path / "rf.csv"
    write_rf_table(data)
    out = tmp_path / "out"
    assert run(["rf", data, "--response", "y", "--ntree-grid", "8,3,12,8",
                "--mtry-grid", "3,1,2", "--repeats", 2, "--folds", 3,
                "--importance-repeats", 2, "--ablate", "coarse", "--seed", 6,
                "--out", out]) == EXIT_OK
    assert {name: digest(out / name) for name in RF_DIGESTS} == RF_DIGESTS


def discretize_table(seed):
    """The default truth at n=200 with one column rounded to one decimal,
    so that quantile cut points repeat and fine bins come out empty."""
    data = simulate(default_truth(), 200, seed=seed)
    rows = data.rows.copy()
    rows[:, 2] = np.round(rows[:, 2], 1)
    return Dataset(data.variables, rows)


# (seed, bins) -> method -> (digest of the codes, digest of the cut points)
DISCRETIZE_DIGESTS = {
    (5, 3): {
        "equal-interval": ("7593776fee1efc0afa0417af9e5d4e38fa82db9d4513d3096f160117bce14f78",
                          "33e8d1547013dfdf5a7fadb9373f2be58dee67daaaae01a26755257b689364c1"),
        "equal-frequency": ("b9d23c42dc29f3db806ac7dc8795995f4e0ad93dae0d9707391673a70c6bdf20",
                           "cf380d4aecced56074206c5259ac97ebb57f8e68f476a6f9cde12d990d65dbda"),
        "kmeans": ("d918380aad898fa3136a3a63893e06623645e4d17b1689c4842062f66f5e681d",
                  "8d53a599dfe29a16a3a2993a8c9111b7496b5f2735f237874ac9a4846df4e7cc"),
        "hartemink": ("cec5157cb82d5a001acea65c4930e189f31a829e283ad3f88e72c2b77339bbfb",
                     "0bf264326dcb7201b0e3758bc7054432d4abb3b0b1b2e831dacd1907bf2c03d4"),
    },
    (23, 4): {
        "equal-interval": ("b8f3814ec2f1090488ac23198c022b16ce2b21d26a636ce5ed1d7b208a654b37",
                          "294684b7fe05a28d5c6ba25dc085c90b1559eb07cf589c4752cf963c5b96f588"),
        "equal-frequency": ("10a24873fcd27116d95623970383ec4ce8535d9fc3a66b762ee21b7953acf7a1",
                           "d2bd9a44613fa5f564473e1fc6f9c02269f497554b20c6179cf2c649b786854e"),
        "kmeans": ("1f7dc7029ae17b3ddbb332ae2a5f3af6e81d5ccf8d64ba0be0713b51e99b77f4",
                  "a309e9f2b0c5925b1923e494180a51387421e5c4e35375f039fa826e4ac00097"),
        "hartemink": ("6a19e45501748ae8f96969163fb5ee4bdb64cdd48daece2d622493ceb6c1a8d8",
                     "85476b6a76741d65a0a0fa921587480e072fa5e6ee30587bbd671be912c866d9"),
    },
}


@pytest.mark.parametrize("seed,bins", [(5, 3), (23, 4)])
@pytest.mark.parametrize("method", METHODS)
def test_discretize_codes_and_edges_are_byte_identical(method, seed, bins):
    out = discretize(discretize_table(seed), DiscretizationSpec(method=method, bins=bins))
    codes = np.ascontiguousarray(out.dataset.rows, dtype="<i8").tobytes()
    edges = b"".join(np.ascontiguousarray(e, dtype="<f8").tobytes() + b"|"
                     for e in out.edges)
    assert (hashlib.sha256(codes).hexdigest(), hashlib.sha256(edges).hexdigest()) == \
        DISCRETIZE_DIGESTS[seed, bins][method]
