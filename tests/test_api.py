"""The package's public surface: exported names and the declared version."""

import re
from pathlib import Path

import pytest

import plspb
import plspb.fileio

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves():
    for name in plspb.__all__:
        assert getattr(plspb, name) is not None, name


def _resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


@pytest.mark.parametrize(
    "name",
    [
        # removed in 0.5.0: clr returns an array and PLS runs through pls_regression
        "ClrMatrix", "center_columns", "pca_fit", "pls_fit",
        # removed in 0.7.0 without a caller: fitted models are LogContrastModel
        "BalanceModel", "predict_components", "pls_predict", "classify", "best_balance",
        "balance_values", "CompositionMatrix.take_samples", "fileio.sha256_file", "pb._winner",
    ],
)
def test_removed_names_are_gone(name):
    assert name not in plspb.__all__
    for owner in (plspb, plspb.coda, plspb.latent, plspb.modelsel, plspb.pb):
        assert not _resolves(owner, name), owner.__name__


def test_logcontrast_model_is_exported():
    assert "LogContrastModel" in plspb.__all__
    assert plspb.LogContrastModel is plspb.coda.LogContrastModel


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert match is not None
    assert plspb.__version__ == match.group(1)
