import pytest

from biasedwave.cli import _KernelCache


@pytest.fixture(scope="session")
def kernels():
    """Session-wide kernel cache: the CLI's own, p only relabels the params."""
    return _KernelCache().get
