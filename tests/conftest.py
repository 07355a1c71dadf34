"""Fixtures shared by the test modules: the verification suite's reports and
the compiled kernel's builds.

The suite runs once per session.  The loaded kernel is memoized per process
(``pdloop._library``); the kernel fixtures forget it, point the loader at a
build, and forget it again, so the next test loads the user's cached object
as a normal process would.
"""

import pytest

from harea import pdloop, run_suite


@pytest.fixture(scope="session")
def suite():
    """The fifteen reports of one ``run_suite()``, by check id, and its summary."""
    reports, summary = run_suite(None)
    return {r.check_id: r for r in reports}, summary


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test, so the test builds
    its own and the next solve loads the cached one again."""
    pdloop._library.cache_clear()
    yield
    pdloop._library.cache_clear()


@pytest.fixture(scope="session")
def portable_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("portable-cache")


def _use_portable(monkeypatch, portable_cache):
    """Make the host's CPU features unreadable, so the loader builds the
    portable flags, cached in a directory of the test session: built once
    per session and left out of the user's cache, where no normal process
    would load or remove it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(portable_cache))
    monkeypatch.setattr(pdloop, "_CPUINFO", portable_cache / "no-cpuinfo")


@pytest.fixture
def portable_block(fresh_loader, monkeypatch, portable_cache):
    """The C block built with the portable flags."""
    _use_portable(monkeypatch, portable_cache)
    if pdloop._library() is None:
        pytest.skip("the C block cannot be built here (no compiler, or the build failed)")
    assert pdloop.loop_info()["cflags"] == list(pdloop._PORTABLE_CFLAGS)


@pytest.fixture
def each_kernel_path(fresh_loader, monkeypatch, portable_cache, tmp_path):
    """``each_kernel_path()`` yields ``host``, ``portable`` and ``numpy``,
    with the process switched to that build of the kernel while the caller's
    loop body runs; ``numpy`` removes the kernel's source, as an install
    without its package data would.  Where no kernel can be built the host
    and portable paths run the NumPy fallback too."""

    def paths():
        for path in ("host", "portable", "numpy"):
            with monkeypatch.context() as m:
                if path == "portable":
                    _use_portable(m, portable_cache)
                elif path == "numpy":
                    m.setattr(pdloop, "_SOURCE", tmp_path / "missing-pdloop.c")
                pdloop._library.cache_clear()
                flags = pdloop.loop_info()["cflags"]
                if path == "portable":
                    assert flags in (None, list(pdloop._PORTABLE_CFLAGS))
                elif path == "numpy":
                    assert flags is None
                yield path
            pdloop._library.cache_clear()

    return paths
