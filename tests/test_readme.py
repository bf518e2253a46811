"""The README's library example runs as written, so a renamed or removed
public name cannot leave it stale."""

import os
import re

from cdunlearn import synth

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_example() -> str:
    """The ``python`` block under the README's "## Library use" heading."""
    with open(README, encoding="utf-8") as f:
        section = f.read().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    data = tmp_path / "data"
    dataset = synth.generate_dataset(120, 10, 4, seed=3)
    synth.write_dataset_csv(dataset, str(data / "responses.csv"), str(data / "qmatrix.csv"))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_library_example(), "README.md", "exec"), namespace)
    assert 0.0 <= namespace["audit"].mia_auc <= 1.0
