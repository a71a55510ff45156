"""The public surface: every exported name resolves, and removed names stay gone."""
import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import mimobp
from mimobp import detectors, errors

REMOVED_EXPORTS = ("gram", "hermitian_solve", "max_log", "SingularMatrixError",
                   "ber_accumulate", "NoiseSpec", "bit_to_symbol_index",
                   "generate_bits", "sample_channel", "transmit", "select_edges",
                   "log_likelihood_D", "mmse_filter", "mmse_prior_llr", "soft_output")


def test_every_exported_name_resolves():
    assert len(set(mimobp.__all__)) == len(mimobp.__all__)
    for name in mimobp.__all__:
        assert hasattr(mimobp, name), name


@pytest.mark.parametrize("name", REMOVED_EXPORTS)
def test_removed_names_are_not_exported(name):
    assert name not in mimobp.__all__
    assert not hasattr(mimobp, name)
    for info in pkgutil.iter_modules(mimobp.__path__):
        assert not hasattr(importlib.import_module(f"mimobp.{info.name}"), name), info.name


def test_one_implementation_per_detector():
    """The per-vector detector stack and its Cholesky module are gone."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("mimobp.numerics")
    for name in ("_detect_ml", "_detect_mmse", "_detect_mmse_sic", "_bp_run",
                 "_component_llr"):
        assert not hasattr(detectors, name), name
    assert not hasattr(errors, "SingularMatrixError")


def test_import_leaves_the_process_pool_unloaded():
    """The pool module, and multiprocessing with it, loads only for workers > 1."""
    src = os.path.dirname(os.path.dirname(mimobp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mimobp; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_name_the_readme_cites_resolves():
    """`module.name` in README.md, for the package's modules, names a real attribute."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        cited = set(re.findall(r"`(?:mimobp\.)?(channel|detectors|simulator|metrics|presets"
                               r"|selfcheck|cli)\.([A-Za-z_]\w*)", fh.read()))
    assert cited
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"mimobp.{module}"), name)]
    assert not missing, missing
