"""The benchmark's layer tracer names only what the package has.

`perfbench/layertrace.py` resolves each traced layer by module and
attribute name when a traced run installs it, so a package function it
names that is later renamed or deleted crashes `perfbench/run.py
--trace 1`.  The tracer is loaded here by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_layertrace", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_function_resolves():
    missing = []
    for name, (mod_name, attr) in _tracer().FUNCTIONS.items():
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in cls.__dict__
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(name)
    assert missing == []


def test_every_traced_scalar_class_exists():
    missing = [name for name, (mod_name, cls_name) in _tracer().SCALARS.items()
               if not isinstance(getattr(importlib.import_module(mod_name),
                                         cls_name, None), type)]
    assert missing == []
