"""The README's library sketch runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_library_sketch_runs(monkeypatch):
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    monkeypatch.chdir(ROOT)  # the sketch reads meshes/ relative to the repository root
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    grid, end = namespace["grid"], namespace["end"]
    assert grid.growth_report.skipped == []
    [(_, new_id)] = grid.growth_report.inserted
    segment = next(el for el in grid.leaf_view().elements() if el.id == new_id)
    assert [v.id for v in segment.vertices()][0] == end.id
    assert segment.vertices()[1].coords.tolist() == (end.coords + [0.0, 0.0, 1.0]).tolist()
