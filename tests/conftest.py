"""Fixtures shared by the test modules."""

import contextlib

import pytest

from qzeros import verify


@pytest.fixture
def pools(monkeypatch):
    """What each run_checks call ran its identity checks in, in call order:
    None for inline, else the worker pool.  Tests pick the path by patching
    ``verify._usable_cpus``: one CPU runs inline, two fork workers."""
    opened = []
    real = verify._identity_pool

    @contextlib.contextmanager
    def recording(*args):
        with real(*args) as pool:
            opened.append(pool)
            yield pool

    monkeypatch.setattr(verify, "_identity_pool", recording)
    return opened
