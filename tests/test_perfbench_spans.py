"""The benchmark's tracer wraps package functions by module attribute
(perfbench/spans.py); a rename in the package would break `--trace 1`
runs without failing anything else, so it is checked here."""

import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist_and_tracer_restores_them():
    spans = _load_spans()
    for module, attr, name in spans.TRACED:
        assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr} is gone"
        assert name.split(".")[-1] == attr

    before = {mod: dict(vars(mod)) for mod in spans.PACKAGE_MODULES}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr, name in spans.TRACED:
            assert getattr(module, attr) is not before[module][attr], f"{name} was not wrapped"
    finally:
        tracer.uninstall()
    for mod, attrs in before.items():
        after = vars(mod)
        assert after.keys() == attrs.keys()
        changed = [k for k in attrs if after[k] is not attrs[k]]
        assert not changed, f"{mod.__name__}: {changed} not restored"
