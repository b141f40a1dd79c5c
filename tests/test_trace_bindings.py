"""Every call the benchmark traces is bound where the library looks it up.

``perfbench/worker.py`` lists in ``TRACED`` each traced function by its
``module.name`` and the ``(module, attribute)`` places in ``nyscode`` that
call it; its trace mode rebinds those attributes and reports any it cannot
find. A refactor that moves a call out of one of those namespaces would
leave the benchmark tracing nothing there, so each binding must exist and
be the function its span is named after. The worker is imported for that
table only; its entry point does not run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return [(name, bindings) for name, bindings, _ in worker.TRACED]


TRACED = _traced()


def _lookup(module, attr):
    return getattr(importlib.import_module(f"nyscode.{module}"), attr, None)


@pytest.mark.parametrize("name, bindings", TRACED, ids=[name for name, _ in TRACED])
def test_traced_binding_exists(name, bindings):
    traced = _lookup(*name.rsplit(".", 1))
    assert callable(traced), f"{name} is not a function of nyscode"
    for module, attr in bindings:
        assert _lookup(module, attr) is traced, f"nyscode.{module}.{attr} is not {name}"
