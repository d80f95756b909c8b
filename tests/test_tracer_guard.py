"""The benchmark tracer still finds every layer it wraps.

``bench/tracer.py`` wraps named methods and functions of the package from
outside (``bench/run.py --trace 1``).  A refactor that renames or deletes
one of them fails here instead of breaking tracing silently.
"""

import importlib.util
import sys
from pathlib import Path

import nctorus.cli  # noqa: F401  (loads the package; the tracer rewires names cli imports)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nctorus_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module: str, attr: str):
    """(owner, name, current value) of one tracer target."""
    mod = sys.modules[f"nctorus.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return mod, attr, getattr(mod, attr)


def test_tracer_wraps_every_target_and_restores_it():
    tracer = _load_tracer()
    originals = {
        (module, attr): _lookup(module, attr)[2] for module, attr, _, _ in tracer.TARGETS
    }

    tr = tracer.Tracer()
    tr.install()
    try:
        for module, attr, prefix, _ in tracer.TARGETS:
            _, _, current = _lookup(module, attr)
            assert current is not originals[(module, attr)], f"{prefix} was not wrapped"
            assert current.__wrapped__ is originals[(module, attr)], prefix
            if "." not in attr:
                # every package module that imported the function by name
                # now holds the wrapper too
                for name, other in sys.modules.items():
                    if name == "nctorus" or name.startswith("nctorus."):
                        assert getattr(other, attr, None) is not originals[(module, attr)], (
                            f"{name}.{attr} escaped tracing"
                        )
        assert set(tr.snapshot()) == {name for name, _, _ in tracer.metric_names()}
    finally:
        tr.remove()

    for module, attr, prefix, _ in tracer.TARGETS:
        assert _lookup(module, attr)[2] is originals[(module, attr)], f"{prefix} not restored"
