"""The benchmark's tracer wraps leavitt functions by name; every name it
lists must exist, or ``bench/run.py --trace 1`` fails at install time.
It also looks up every module it lists in ``sys.modules``, so importing the
CLI must import each of them; and the CLI starts without ``dataclasses``
or ``inspect``, whose import every command would pay for.  The record
types store their fields in slots, through the slot setters, and each
``__init__`` is a copy of an initializer written out in ``leavitt.graph``;
a record class that does not fit one is refused before it exists."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import pytest

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


def test_record_inits_are_copies_of_the_written_out_initializers():
    """Each record's ``__init__`` runs the bytecode of the initializer for
    its field count, and its parameter names and qualified name reach the
    error a call without arguments raises, as the dataclass twin's do."""
    from leavitt.graph import _INITIALIZERS
    from test_reference_copies import _TWIN
    types = _record_types()
    assert set(types) == set(_TWIN)
    for cls in types:
        twin = _TWIN[cls]
        template = _INITIALIZERS[len(fields(twin))]
        assert cls.__init__.__code__.co_code == template.__code__.co_code, cls
        with pytest.raises(TypeError) as made:
            cls()
        with pytest.raises(TypeError) as made_twin:
            twin()
        assert str(made.value) == str(made_twin.value).removeprefix("Ref"), cls


def _assert_refused(define, message: str):
    """define() makes a record class that must be refused before it
    exists, so Record counts no new subclass."""
    from leavitt.graph import Record
    before = Record.__subclasses__()
    with pytest.raises(TypeError, match=message):
        define()
    assert Record.__subclasses__() == before


def test_record_field_without_default_after_default_is_refused():
    from leavitt.graph import Record

    def define():
        class Late(Record):
            a: int = 0
            b: int

    _assert_refused(define, "Late: non-default field 'b' follows a field with a default")


def test_record_field_count_without_initializer_is_refused():
    from leavitt.graph import Record

    def define():
        class Six(Record):
            a: int
            b: int
            c: int
            d: int
            e: int
            f: int

    _assert_refused(define, "Six: no initializer for 6 fields; write out _init6")


def test_record_slots_not_starting_with_the_fields_are_refused():
    from leavitt.graph import Record

    def define():
        class Swapped(Record):
            __slots__ = ("b", "a")
            a: int
            b: int

    _assert_refused(define, r"Swapped: __slots__ must start with the fields \('a', 'b'\)")
