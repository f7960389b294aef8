import importlib
import pkgutil

import optcert


def test_every_name_in_all_resolves():
    names = ["optcert"] + [f"optcert.{info.name}" for info in pkgutil.iter_modules(optcert.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert len(names) > 1 and missing == []
