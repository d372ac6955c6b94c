"""The README's Library section stays true: its example runs, the result
fields its comments name exist, and every name it cites is exported."""

import inspect
import re
from pathlib import Path

import cantorloc
from cantorloc.cantor import MAX_INTERVALS_ENV

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_section_is_true():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    # "name = ...  # .a and .b" names fields of that result.
    for name, fields in re.findall(
            r"^(\w+) = .*#\s*(\.\w+(?:\s+and\s+\.\w+)*)\s*$", code, re.M):
        for field in re.findall(r"\.(\w+)", fields):
            assert hasattr(namespace[name], field), f"{name}.{field}"
    # Backticked names in the prose are exports, parameters of exported
    # functions, or the cap's environment variable.
    params = set()
    for export in cantorloc.__all__:
        obj = getattr(cantorloc, export)
        if inspect.isfunction(obj):
            params.update(inspect.signature(obj).parameters)
    for name in re.findall(r"`(\w+)`", section.replace(code, "")):
        assert name in cantorloc.__all__ or name in params or name == MAX_INTERVALS_ENV, name
    for name in ("discrete_iterate", "continuous_iterate", "lambda0_closed_form"):
        assert name in cantorloc.__all__ and f"`{name}`" in section, name
