"""The benchmark's span tracer wraps package functions by name, so renaming or
deleting one of them breaks `perfbench/run.py --trace 1`.  This loads the
tracer from its file, installs it and checks every name it depends on."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(short, attr):
    target = importlib.import_module("dillcalc." + short)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    spans = tracer.Tracer()
    try:
        spans.install()
        for short, names in tracer.WRAPPED.items():
            for attr in names:
                bound = _resolve(short, attr)
                # a classmethod resolves to a bound method of its wrapper
                assert getattr(bound, "__func__", bound) is spans._wrappers[f"{short}.{attr}"]
        for name in tracer.CACHED_TABLES:
            table = _resolve("multiindex", name)
            if not hasattr(table, "cache_info"):  # the installed span wrapper
                table = table.__wrapped__
            assert hasattr(table, "cache_info"), name
        spans.begin("probe")
        spans.end()
    finally:
        spans.uninstall()
    for name in tracer.CACHED_TABLES:
        assert hasattr(_resolve("multiindex", name), "cache_info"), f"{name} was not restored"
