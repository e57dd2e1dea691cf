"""Importing relqual must not import scipy; the p-value functions load it.

The check runs in a fresh interpreter: other test modules import scipy at
module level, so this process's ``sys.modules`` says nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import numpy as np
import relqual, relqual.cli
from relqual.ols import t_sf_two_sided
from relqual.search import _fisher_z_pvalue

scipy_at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
t, df = 2.3, 17.0
p_t = t_sf_two_sided(t, df)
corr, n = np.array([[1.0, 0.3], [0.3, 1.0]]), 50
p_z = _fisher_z_pvalue(corr, n, 0, 1, ())
special_loaded = "scipy.special" in sys.modules

from scipy import special
print(json.dumps({
    "scipy_at_import": scipy_at_import,
    "special_loaded": special_loaded,
    "t": [p_t.hex(), float(special.betainc(df / 2.0, 0.5, df / (df + t * t))).hex()],
    "z": [p_z.hex(),
          float(2.0 * special.ndtr(-abs(np.sqrt(n - 3) * np.arctanh(0.3)))).hex()],
}))
"""


def test_import_leaves_scipy_unloaded_until_a_p_value():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    probe = json.loads(done.stdout)
    assert probe["scipy_at_import"] == []
    assert probe["special_loaded"]
    # bit for bit: the functions call scipy.special with the same arguments
    assert probe["t"][0] == probe["t"][1]
    assert probe["z"][0] == probe["z"][1]
