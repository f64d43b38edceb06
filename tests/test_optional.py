"""Unit tests for the guarded-import helper (repro._optional)."""

import sys

import pytest

from repro import _optional
from repro._optional import MissingDependencyError, optional_module, require_module


@pytest.fixture(autouse=True)
def clean_cache(monkeypatch):
    monkeypatch.setattr(_optional, "_CACHE", {})


class TestOptionalModule:
    def test_present_module_returned(self):
        import json

        assert optional_module("json") is json

    def test_missing_module_returns_none(self):
        assert optional_module("definitely_not_installed_xyz") is None

    def test_memoized(self, monkeypatch):
        calls = []
        real = _optional.importlib.import_module

        def counting(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(_optional.importlib, "import_module", counting)
        assert optional_module("json") is optional_module("json")
        assert calls == ["json"]

    def test_missing_result_memoized_too(self):
        assert optional_module("definitely_not_installed_xyz") is None
        assert _optional._CACHE["definitely_not_installed_xyz"] is None

    def test_dotted_name_returns_submodule(self):
        mod = optional_module("os.path")
        import os.path

        assert mod is os.path

    def test_non_import_errors_surface(self, monkeypatch):
        def broken(name):
            raise RuntimeError("corrupted install")

        monkeypatch.setattr(_optional.importlib, "import_module", broken)
        with pytest.raises(RuntimeError, match="corrupted install"):
            optional_module("whatever")


class TestRequireModule:
    def test_present_module_returned(self):
        assert require_module("json") is sys.modules["json"]

    def test_error_names_dist_and_extra(self):
        with pytest.raises(MissingDependencyError) as exc:
            require_module("scipy_missing_stub.spatial")
        msg = str(exc.value)
        assert "'scipy_missing_stub'" in msg
        assert 'pip install "repro[dev]"' in msg

    def test_known_extras_table(self, monkeypatch):
        monkeypatch.setattr(
            _optional.importlib,
            "import_module",
            lambda name: (_ for _ in ()).throw(ImportError(name)),
        )
        with pytest.raises(MissingDependencyError, match=r"repro\[dev\]"):
            require_module("scipy.spatial", feature="the example fast path")
        with pytest.raises(MissingDependencyError, match="example fast path"):
            require_module("scipy.spatial", feature="the example fast path")

    def test_is_an_import_error(self):
        # Callers may catch plain ImportError.
        with pytest.raises(ImportError):
            require_module("definitely_not_installed_xyz")
