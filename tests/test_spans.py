"""The benchmark's tracer (perfbench/spans.py) patches rcls by name: every
name it traces must exist, and uninstalling it must leave rcls as it was.
So renaming a traced function fails here, not only in a traced benchmark
run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import rcls  # noqa: F401  (imports every module the tracer patches)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_classes(spans):
    return {getattr(sys.modules[mod], attr.split(".")[0])
            for mod, attr, _ in spans.TRACED if "." in attr}


def test_every_traced_name_resolves():
    spans = load_spans()
    for mod, attr, _ in spans.TRACED:
        owner = sys.modules[mod]
        if "." in attr:  # a method must be defined on its class, not inherited
            cls, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls)).get(meth)), f"{mod}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{mod}.{attr}"


def test_uninstall_puts_every_original_back():
    spans = load_spans()
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "rcls" or name.startswith("rcls.")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    classes = {cls: dict(vars(cls)) for cls in traced_classes(spans)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod, attr, _ in spans.TRACED:
            if "." in attr:
                cls, meth = attr.split(".")
                cls = getattr(sys.modules[mod], cls)
                assert vars(cls)[meth] is not classes[cls][meth], f"{mod}.{attr}"
            else:
                assert getattr(sys.modules[mod], attr) is not before[mod][attr], f"{mod}.{attr}"
        sys.modules["rcls.linalg"].spd_solve(np.eye(2), np.ones((2, 1)))
        assert tracer.counts["linalg.spd_solve.calls"] == 1
    finally:
        tracer.uninstall()
    for name, mod in modules.items():
        after = vars(mod)
        assert all(after[key] is value for key, value in before[name].items()), name
    for cls, attrs in classes.items():
        after = vars(cls)
        assert all(after[key] is value for key, value in attrs.items()), cls.__name__
