"""The package's public surface: exported names and the declared version."""

import re
from pathlib import Path

import pytest

import plspb

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves():
    for name in plspb.__all__:
        assert getattr(plspb, name) is not None, name


@pytest.mark.parametrize("name", ["ClrMatrix", "center_columns", "pca_fit", "pls_fit"])
def test_removed_names_are_gone(name):
    # removed in 0.5.0: clr returns an array and PLS runs through pls_regression
    assert name not in plspb.__all__
    assert not hasattr(plspb, name)


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert match is not None
    assert plspb.__version__ == match.group(1)
