"""The package's records keep the value semantics of the dataclasses they
replaced; importing the package loads no standard module beyond a short
allowlist and what those modules import, and importing it with its CLI
loads every module of the package."""

import copy
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import perifold
from perifold.cli import InputFile
from perifold.complexes import Complex2, LinkGraph, PieceTable, SmallCancellationReport
from perifold.criteria import Verdict
from perifold.engine import AttachmentSite, ReductionTrace, TraceStep
from perifold.maps import CombMap
from perifold.subgroups import SubgroupResult
from perifold.weights import Weighting
from perifold.words import Presentation, Word

TORUS = Complex2(1, [(0, 0), (0, 0)], [(1, 2, -1, -2)])
WORD = Word((1, -2))
PRESENTATION = Presentation(("a", "b"), (Word((1, 2, -1, -2)),), ("a note",))
WEIGHTING = Weighting(TORUS, ((1, 1, 1, 1),))
COMB_MAP = CombMap(TORUS, TORUS, [0], [1, 2], [(0, 0, False)])
STEP = TraceStep("fold", 3, 2, 1, 0, {"refs": (1, 2)})
TRACE = ReductionTrace(4, 2, [STEP])
VERDICT = Verdict("powers", True, "both", True, ["a witness"], ["a note"], {"n": 1})

# every record class of the package, with constructor arguments, and
# whether it is frozen
RECORDS = [
    (Word, ((1, -2),), True),
    (Presentation, (("a", "b"), (Word((1, 2, -1, -2)),), ("a note",)), True),
    (Weighting, (TORUS, ((1, 1, 1, 1),)), True),
    (Complex2, (1, [(0, 0), (0, 0)], [(1, 2, -1, -2)]), False),
    (LinkGraph, ([1, -1], [(1, -1, 0, 0)], 4), False),
    (PieceTable, ([[1, 1, 1, 1]], [1]), False),
    (SmallCancellationReport, (6, 3, None, False, True, None, ["a witness"]), False),
    (CombMap, (TORUS, TORUS, [0], [1, 2], [(0, 0, False)], 0), False),
    (AttachmentSite, (0, 1, 1, 0, False, TORUS), False),
    (TraceStep, ("fold", 3, 2, 1, 0, {"refs": (1, 2)}), False),
    (ReductionTrace, (4, 2, [STEP]), False),
    (Verdict, ("powers", True, "both", True, ["a witness"], ["a note"], {"n": 1}), False),
    (SubgroupResult, (PRESENTATION, TRACE, VERDICT, False, COMB_MAP, True), False),
    (InputFile, (PRESENTATION, TORUS, WEIGHTING, {"H": [WORD]}), False),
]
UNCOMPARED = {(Presentation, "warnings"), (AttachmentSite, "domain")}


def _outcome(f):
    """f()'s value, or the class of the exception it raised."""
    try:
        return f()
    except Exception as e:  # noqa: BLE001 - the class is the outcome
        return type(e)


@pytest.mark.parametrize("cls, args, frozen", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_value_semantics(cls, args, frozen):
    params = list(inspect.signature(cls).parameters.values())
    names = [p.name for p in params]
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    for other in (object(), STEP if cls is not TraceStep else WORD):
        assert a.__eq__(other) is NotImplemented
    compared = tuple(getattr(a, n) for n in names if (cls, n) not in UNCOMPARED)
    for name in names:
        changed = copy.copy(a)
        vars(changed)[name] = object()
        assert (changed == a) is ((cls, name) in UNCOMPARED), name
    # the repr names every constructor parameter, in order: Word(letters=(1, -2))
    shown = ", ".join(f"{n}={getattr(a, n)!r}" for n in names)
    assert repr(a) == f"{cls.__name__}({shown})"
    if frozen:
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(compared))
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    # a defaulted container is fresh in each record
    required = args[:sum(p.default is inspect.Parameter.empty for p in params)]
    for name in names[len(required):]:
        one, two = getattr(cls(*required), name), getattr(cls(*required), name)
        if isinstance(one, (list, dict)):
            assert one == type(one)() and one is not two, name


# the standard modules that importing the package may load: every CLI run
# and every library user pays for each module that start-up loads, so
# nothing else is allowed in, apart from what these import on the running
# Python (`argparse` is imported where the CLI parses its arguments, `json`
# where it prints --json, and `fractions` where it parses --alpha)
ALLOWED_AT_IMPORT = ["__future__", "bisect", "functools", "heapq", "itertools", "math",
                     "operator", "re"]


def _loaded_by(imports: str) -> set[str]:
    """The modules an `-I -S` interpreter holds after running `imports`,
    less those it held at its start."""
    src = str(Path(perifold.__file__).resolve().parent.parent)
    code = (f"import sys; before = set(sys.modules); sys.path.insert(0, {src!r}); "
            f"{imports}; print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


@pytest.mark.parametrize("module", ["perifold", "perifold.cli"])
def test_import_leaves_heavy_modules_out(module):
    loaded = _loaded_by(f"import {module}")
    assert {"perifold", module} <= loaded
    allowed = _loaded_by("import " + ", ".join(ALLOWED_AT_IMPORT))
    assert {m for m in loaded if m.split(".")[0] != "perifold"} - allowed == set()


def test_import_loads_every_package_module():
    # a module that neither the package nor its CLI imports is no part of
    # the product: test and measurement aids live under tests/ and scripts/
    loaded = _loaded_by("import perifold, perifold.cli")
    package = Path(perifold.__file__).resolve().parent
    modules = {"perifold" if p.stem == "__init__" else f"perifold.{p.stem}"
               for p in package.glob("*.py")}
    assert modules - loaded == set()
