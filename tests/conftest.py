import pytest

from starkprobe.cli import _openblas_libraries


def _blas_counts() -> dict:
    return {name: get() for name, (get, _) in _openblas_libraries().items()}


@pytest.fixture(autouse=True)
def blas_threads_left_as_found():
    """Fail a test that leaves a loaded OpenBLAS at another thread count than it found."""
    before = _blas_counts()
    yield
    after = _blas_counts()
    changed = {name: (count, after[name]) for name, count in before.items()
               if after[name] != count}
    assert not changed, f"OpenBLAS thread counts changed (before, after): {changed}"
