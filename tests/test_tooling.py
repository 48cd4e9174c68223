"""The benchmark's tracer wraps leavitt functions by name; every name it
lists must exist, or ``bench/run.py --trace 1`` fails at install time.
It also looks up every module it lists in ``sys.modules``, so importing the
CLI must import each of them; and the CLI starts without ``dataclasses``
or ``inspect``, whose import every command would pay for.  The record
types store their fields in slots, through the slot setters."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def test_cli_import_is_lean_and_eager():
    tracing = _load_tracing()
    probe = ("import json, sys, leavitt.cli; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith("
             "('dataclasses', 'inspect', 'leavitt')))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    loaded = set(json.loads(run.stdout))
    assert not loaded & {"dataclasses", "inspect"}
    assert {f"leavitt.{m}" for m in tracing.MODULES} <= loaded


def _record_types() -> list:
    import leavitt.cli  # noqa: F401  (imports every module that defines records)
    from leavitt.graph import Record
    found, work = [], [Record]
    while work:
        for sub in work.pop().__subclasses__():
            found.append(sub)
            work.append(sub)
    return found


def test_records_are_slotted_and_store_through_slot_setters():
    """Every record type but MatrixUnits, whose cached property needs an
    instance dict, has no ``__dict__``; no record's ``__init__`` calls
    ``object.__setattr__``."""
    from leavitt.algebra import MatrixUnits
    types = _record_types()
    assert len(types) == 27
    for cls in types:
        assert ("__dict__" in dir(cls)) is (cls is MatrixUnits), cls
        assert "__setattr__" not in cls.__init__.__code__.co_names, cls
