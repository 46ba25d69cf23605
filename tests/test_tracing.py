"""The benchmark's tracer (``perfbench/tracing.py``) looks up package names
and patches them; every name it needs must exist, and uninstalling must
restore each patched attribute."""

import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import diskabc

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every package module and evaluated class."""
    out = {name: dict(vars(module)) for name, module in list(sys.modules.items())
           if name == "diskabc" or name.startswith("diskabc.")}
    for cls in (diskabc.PolyC, diskabc.BlaschkeProduct):
        out[cls.__name__] = dict(vars(cls))
    return out


def test_install_and_uninstall_restore_every_patch():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        diskabc.verify(diskabc.build_system(diskabc.monomial_family(1),
                                            diskabc.UNIT_DISK))
    finally:
        tracer.uninstall()
    wrapped = {(t.__name__, attr) for t, attr, _ in patched if isinstance(t, ModuleType)}
    for mod, table in tracing.SPANS.items():
        assert {(f"diskabc.{mod}", attr) for attr in table} <= wrapped
    assert {name for name, *_ in tracer.spans} >= {
        "abc_verifier.build_system", "abc_verifier.verify", "polycore.roots"}
    for target, attr, original in patched:
        assert vars(target)[attr] is original
    after = _bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        assert all(after[name][k] is v for k, v in attrs.items()), name
