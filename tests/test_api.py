import pathlib
import re

import tinycore


def test_every_exported_name_resolves_once():
    names = tinycore.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(tinycore, name)]
    assert missing == []


def test_readme_example_runs():
    # the README's one library example, found from this file, so the test runs from any directory
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    (example,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.DOTALL)
    exec(compile(example, str(readme), "exec"), {})
