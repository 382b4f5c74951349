"""The package namespace: each module's __all__ is its one list of public
names, and the README's library sketch runs against it."""
import importlib
import re
from pathlib import Path

import nfgaps

MODULES = ["angles", "errors", "experiments", "expsum", "limitdist", "modcurve", "omega"]
README = Path(__file__).resolve().parent.parent / "README.md"


def module_names():
    return [(module, name) for module in MODULES
            for name in importlib.import_module(f"nfgaps.{module}").__all__]


class TestNamespace:
    def test_all_is_version_plus_module_lists(self):
        assert nfgaps.__all__ == ["__version__", *(name for _, name in module_names())]

    def test_no_duplicates(self):
        assert len(set(nfgaps.__all__)) == len(nfgaps.__all__)

    def test_each_name_is_the_module_object(self):
        for module, name in module_names():
            owner = importlib.import_module(f"nfgaps.{module}")
            assert getattr(nfgaps, name) is getattr(owner, name), (module, name)


def test_readme_library_sketch():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library sketch\n.*?^```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no Library sketch python block"
    exec(compile(match.group(1), "README.md", "exec"), {})
