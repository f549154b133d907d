import dataclasses
import importlib
import inspect
import pkgutil

import vqclab


def test_public_names_resolve():
    names = vqclab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(vqclab, name)] == []
    for removed in ("FromLogical", "Synthesized", "TranspileOptions", "choose_layout"):
        assert removed not in names and not hasattr(vqclab, removed)


def test_every_dataclass_is_frozen():
    # a sweep's worker threads share its config, its backend and the gates they compile
    classes = [
        obj
        for info in pkgutil.iter_modules(vqclab.__path__)
        for obj in vars(importlib.import_module(f"vqclab.{info.name}")).values()
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__module__ == f"vqclab.{info.name}"
    ]
    assert {"BackendModel", "Circuit", "Gate", "SweepConfig", "SweepRecord"} <= {c.__name__ for c in classes}
    assert [c.__name__ for c in classes if not c.__dataclass_params__.frozen] == []
