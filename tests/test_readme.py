"""The README's quick tour runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    [tour] = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    exec(compile(tour, str(README), "exec"), {})
