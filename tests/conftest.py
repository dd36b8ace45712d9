import pytest

from randcs import sensing


@pytest.fixture
def blas_threads():
    """The setter of numpy's OpenBLAS thread count; the count is restored on teardown.

    Skips the test when numpy bundles no OpenBLAS whose thread count can be set.
    """
    blas = sensing._openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    get, set_threads = blas
    before = get()
    yield set_threads
    set_threads(before)
