import importlib
import pkgutil

import amnet


def test_every_export_resolves():
    modules = [amnet] + [importlib.import_module(f"amnet.{info.name}")
                         for info in pkgutil.iter_modules(amnet.__path__)]
    assert len(modules) > 1
    dangling = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
                if not hasattr(mod, name)]
    assert dangling == []
