"""tools/compare_outputs.py: its cases still build, and its docstring counts them."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def test_case_count_matches_the_docstring(tmp_path):
    # a renamed test helper fails here, not in the next byte-identity comparison
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cases = tool.make_cases(str(tmp_path))
    assert len(cases) == int(re.search(r"Cases \((\d+)\)", tool.__doc__).group(1))
    assert len({name for name, _ in cases}) == len(cases)  # results are keyed by name
