"""The benchmark's tracer wraps leavitt functions by name; every name it
lists must exist, or ``bench/run.py --trace 1`` fails at install time."""

import importlib
import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for mod_name, names in tracing.TRACED.items():
        home = importlib.import_module(f"leavitt.{mod_name}")
        for name in names:
            owner = home
            for part in name.split("."):
                assert hasattr(owner, part), f"leavitt.{mod_name}.{name}"
                owner = getattr(owner, part)
            assert callable(owner), f"leavitt.{mod_name}.{name}"
