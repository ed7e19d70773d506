"""What a cold start loads: each CLI command imports only the modules it
runs, and ``import pathreg`` resolves its names on first access.

Every check runs in a fresh interpreter, since this process has long
since imported everything.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pathreg
from pathreg.cli import main

from test_verify import CATALOGUE_COMPOSITES, STATIONARY_LEAVES

SRC = os.path.dirname(os.path.dirname(pathreg.__file__))

VERIFY_CATALOGUE = [
    f"{leaf}lengthscale={ell})" for leaf, _order, _log in STATIONARY_LEAVES for ell in ("0.1", "1", "10")
] + [text for text, _n in CATALOGUE_COMPOSITES]

# the composites whose verify orders ROADMAP item 2 tabulates
SCALE_COMPOSITES = [
    "matern(nu=1.5) + se(lengthscale=0.01)",
    "1e-4*matern(nu=1.5) + se()",
    "1e-8*matern(nu=0.5) + se()",
    "matern(nu=0.5,lengthscale=100) + se()",
    "matern(nu=2.5) * se(lengthscale=0.1)",
    "matern(nu=2.5) * periodic()",
    "matern(nu=1.5,lengthscale=10) * matern(nu=2.5,lengthscale=0.1)",
    "matern(nu=0.5) + matern(nu=2.5)",
    "matern(nu=1.5) * matern(nu=2.5)",
    "matern(nu=1.5) + wiener()",
]

# derivative processes, which analyze reads as it reads any kernel
DERIVATIVES = [
    "deriv(matern(nu=2.5), 1)",
    "deriv(tensor(matern(nu=1.5), se()), 1, 2)",
    "deriv(matern(nu=2.5,dim=2), 1, 0)",
]

# every name the package exports, by the module that defines it
EXPORTS = {
    "dsl": ["ParseError", "parse_kernel", "print_kernel"],
    "kernels": [
        "AbsPower", "Affine", "Conic", "DomainError", "Feature", "Kernel", "KernelError", "Linear",
        "Matern", "ParameterError", "Periodic", "Polynomial", "Product", "RationalQuadratic",
        "SquaredExponential", "StructureError", "TensorProduct", "Warp", "Wendland", "Wiener",
        "classify", "eval_kernel", "eval_radial", "eval_stationary", "pairwise", "partials",
    ],
    "regularity": ["Regularity", "RegularityReport", "infer_regularity"],
    "sampling": [
        "Axis", "FactorizationError", "Grid", "PathSamples", "build_gram",
        "cholesky_with_jitter", "sample_derivative_paths", "sample_paths",
    ],
    "structure": ["EstimateResult", "axiswise_regularity", "estimate_path_regularity"],
    "verify": [
        "BeyondProbeRange", "ExponentFit", "SmoothToOrder", "VerifyConfig", "VerifyReport",
        "detect_order", "loglog_fit", "verify_regularity",
    ],
}

# runs each argv (a JSON list of argv lists) through cli.main and prints
# the exit codes, the outputs and the numpy, dataclasses, inspect and
# pathreg modules then loaded
_RUN_CLI = """
import contextlib, io, json, sys
from pathreg.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
loaded = sorted(m for m in sys.modules
                if m in ("numpy", "dataclasses", "inspect") or m.startswith("pathreg"))
print(json.dumps({"runs": runs, "loaded": loaded}))
"""


def _fresh(script: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cold_cli(argvs):
    """The exit codes and outputs of ``argvs`` run in one fresh interpreter,
    and the modules loaded after them."""
    result = json.loads(_fresh(_RUN_CLI, json.dumps(argvs)))
    return [tuple(run) for run in result["runs"]], set(result["loaded"])


def _warm_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestCommandsLoadWhatTheyRun:
    def test_analyze_loads_no_numpy(self):
        argvs = [["analyze", "-k", k] for k in VERIFY_CATALOGUE + SCALE_COMPOSITES + DERIVATIVES]
        argvs.append(["analyze", "-k", "matern(nu=2.5) + wiener()", "--format", "csv"])
        argvs.append(["analyze", "-k", "matern(nu=-1)"])
        runs, loaded = _cold_cli(argvs)
        # no numpy, no specfun, and no dataclasses (with inspect, ast and dis)
        assert loaded == {"pathreg", "pathreg._base", "pathreg.cli", "pathreg.dsl",
                          "pathreg.kernels", "pathreg.regularity"}
        # the same bytes as a run in this process, where numpy is loaded
        assert "numpy" in sys.modules
        assert runs == [_warm_cli(argv) for argv in argvs]
        assert [code for code, _out in runs] == [0] * (len(argvs) - 1) + [2]

    def test_verify_loads_no_sampling(self):
        argvs = [["verify", "-k", k] for k in ("se()", "tensor(matern(nu=0.5), matern(nu=1.5))")]
        runs, loaded = _cold_cli(argvs)
        assert [code for code, _out in runs] == [0, 0]
        assert {"numpy", "pathreg.verify"} <= loaded
        assert not loaded & {"pathreg.sampling", "pathreg.structure"}

    # sampling judges a derivative by inferring its order, not through verify
    def test_sample_loads_no_verify(self, tmp_path):
        draws = [("matern(nu=1.5)", "0.25:1.25:33"), (DERIVATIVES[0], "0.25:1.25:33"),
                 ("deriv(tensor(matern(nu=1.5), se()), 1, 0)", "0:1:9,0:1:8")]
        argvs = [["sample", "-k", k, "--grid", grid, "--count", "2", "--seed", "1",
                  "--out", str(tmp_path / f"s{i}")] for i, (k, grid) in enumerate(draws)]
        runs, loaded = _cold_cli(argvs)
        assert [code for code, _out in runs] == [0, 0, 0]
        assert {"numpy", "pathreg.sampling"} <= loaded
        assert not loaded & {"pathreg.verify", "pathreg.structure"}

    # counting a field's columns needs no np.unique, which loads numpy.ma
    # (about 0.9 MB) on first use
    def test_field_read_loads_no_masked_arrays(self, tmp_path):
        from pathreg.dsl import parse_kernel
        from pathreg.sampling import Axis, Grid, sample_paths, write_samples_csv

        grid = Grid((Axis(0.0, 1.0, 64), Axis(0.0, 1.0, 64)))
        path = str(tmp_path / "field.csv")
        write_samples_csv(sample_paths(parse_kernel("tensor(se(), se())"), grid, 2, 3), path)
        script = (
            "import sys; from pathreg.sampling import read_samples_csv; "
            "print(read_samples_csv(sys.argv[1]).grid.shape, 'numpy.ma' in sys.modules)"
        )
        assert _fresh(script, path).split() == ["(64,", "64)", "False"]


class TestPackageNames:
    def test_import_loads_no_submodule(self):
        loaded = _fresh("import pathreg, sys; print(sorted(m for m in sys.modules "
                        "if m == 'numpy' or m.startswith('pathreg')))")
        assert loaded.strip() == "['pathreg']"

    def test_exports_resolve_on_first_access(self):
        script = """
import importlib, json, sys
import pathreg
exports = json.loads(sys.argv[1])
names = [n for ns in exports.values() for n in ns]
listed = set(dir(pathreg))
star = {}
exec("from pathreg import *", star)
same = [n for m, ns in exports.items() for n in ns
        if getattr(pathreg, n) is getattr(importlib.import_module("pathreg." + m), n)]
modules = [m for m in exports if getattr(pathreg, m) is sys.modules["pathreg." + m]]
print(json.dumps({"all": pathreg.__all__, "star": sorted(set(star) & set(names)),
                  "listed": sorted(listed & {*names, *exports}), "same": same,
                  "modules": modules, "bogus": hasattr(pathreg, "bogus")}))
"""
        result = json.loads(_fresh(script, json.dumps(EXPORTS)))
        names = [n for ns in EXPORTS.values() for n in ns]
        assert sorted(result["all"]) == sorted(names)
        assert result["star"] == sorted(names)
        assert result["listed"] == sorted([*names, *EXPORTS])
        assert result["same"] == names
        assert result["modules"] == list(EXPORTS)
        assert result["bogus"] is False
