import importlib
import pkgutil
import sys
from pathlib import Path

import dyndeg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_span_and_restores_every_binding(monkeypatch):
    # a traced benchmark run patches each span by name on its layer's module
    # (and on every module that imported it); a name that moved out of its
    # layer would fail here rather than only in a traced run
    modules = [
        importlib.import_module(f"dyndeg.{info.name}")
        for info in pkgutil.iter_modules(dyndeg.__path__)
        if not info.name.startswith("_")
    ]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    tracer = importlib.import_module("tracer")
    owners = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
    before = {id(owner): dict(vars(owner)) for owner in owners}
    traced = tracer.Tracer()
    traced.install()
    try:
        for layer, qual in tracer.SPANS:
            owner, attr = tracer._resolve(sys.modules[f"dyndeg.{layer}"], qual)
            assert vars(owner)[attr] is not before[id(owner)][attr], f"{layer}.{qual} is not traced"
        polynomials, modp, oracle = (sys.modules[f"dyndeg.{name}"] for name in ("polynomials", "modp", "oracle"))
        # traced as polynomials' kernel, and wrapped on every module that binds it
        assert vars(modp)["univ_gcd_mod"] is vars(polynomials)["univ_gcd_mod"] is vars(oracle)["univ_gcd_mod"]
    finally:
        traced.uninstall()
    for owner in owners:
        now = vars(owner)
        assert all(now[name] is value for name, value in before[id(owner)].items()), owner
