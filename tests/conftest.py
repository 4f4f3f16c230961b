"""A test that patches evaluation internals starts and ends with an empty
atom memo (``nets._ATOMS``): it must not read vectors computed without
its patch, and vectors computed with it must not reach later tests."""

import pytest

from gnum import nets


@pytest.fixture(autouse=True)
def _cold_atom_memo_under_monkeypatch(request):
    patched = "monkeypatch" in request.fixturenames
    if patched:
        nets._ATOMS.clear()
    yield
    if patched:
        nets._ATOMS.clear()
