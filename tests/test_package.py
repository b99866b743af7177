import importlib
import importlib.util
import pkgutil
from pathlib import Path

import amnet


def test_every_export_resolves():
    modules = [amnet] + [importlib.import_module(f"amnet.{info.name}")
                         for info in pkgutil.iter_modules(amnet.__path__)]
    assert len(modules) > 1
    dangling = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
                if not hasattr(mod, name)]
    assert dangling == []


def test_benchmark_patch_sites_resolve():
    # perfbench/tracing.py replaces these attributes by name, so a rename
    # in the package would break the benchmark's traced runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(mod, attr) for mod, attr, *_ in tracing.SPANS] + list(tracing.GRU_STEP_SITES)
    assert len(sites) > len(tracing.GRU_STEP_SITES)
    missing = []
    for mod, attr in sites:
        owner = importlib.import_module(mod)
        *outer, name = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(name) if owner is not None else None):
            missing.append(f"{mod}.{attr}")
    assert missing == []
