"""The benchmark's span tracer patches banditlab by attribute name.

bench/spans.py is loaded by path, as the benchmark loads it, so a rename or
deletion of any name it wraps fails here and not only under a traced run.
"""
import inspect
import sys

import banditlab
import banditlab.cli  # noqa: F401  (the tracer wraps every layer's module)
from conftest import load_spans


def _namespaces():
    """Every banditlab module and class namespace, by identity of its values."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "banditlab" or name.startswith("banditlab."):
            out[name] = dict(vars(mod))
            for cname, cls in inspect.getmembers(mod, inspect.isclass):
                if cls.__module__.startswith("banditlab"):
                    out[f"{cls.__module__}.{cls.__qualname__}"] = dict(vars(cls))
    return out


def test_tracer_wraps_every_boundary_and_uninstall_restores_it():
    spans = load_spans()
    before = _namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install(banditlab)
        patched = list(tracer._patches)
        wrapped = {f"{layer}.{attr.split('.')[-1]}"
                   for layer, attrs in spans.BOUNDARIES.items()
                   for attr in attrs}
        assert wrapped <= set(tracer.names)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
        assert banditlab.knn._score_prechecked is not before[
            "banditlab.knn"]["_score_prechecked"]
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
    after = _namespaces()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert all(after[key].get(n) is v for n, v in names.items()), key
