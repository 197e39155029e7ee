import pytest

from biasedwave import build_kernel, build_params


@pytest.fixture(scope="session")
def kernels():
    """Kernel of (lam, gamma, alpha, p), built on each call."""
    def get(lam, gamma, alpha, p=0.5):
        return build_kernel(build_params(lam, gamma, alpha, p))
    return get
