"""The parity digest (``tests/_parity.py``) runs on this tree.

Its full run compares a parent commit with a change, section by section;
here its quick family runs once and must print every section.
"""

import re
import subprocess
import sys
from pathlib import Path


def test_the_quick_parity_run_prints_every_section():
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(root / "tests" / "_parity.py"), "--quick", str(root)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "closures", "budgets", "graphs", "oracle", "reports", "datasets"
    ]
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64}", line.rsplit(": ", 1)[1]), line
