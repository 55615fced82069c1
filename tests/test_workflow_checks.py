"""Checks of README's Library block, run on the source tree.

The CI workflow's console-script step only runs the block against the
installed package; the time it quotes is checked here alone.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_reaches_its_quoted_time():
    """The python block under README's ``## Library`` runs as written, and
    its ``time_to_reach`` call gives the time its comment quotes, uncapped."""
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    scope = {}
    exec(re.search(r"```python\n(.*?)```", library, re.S).group(1), scope)
    reach = scope["time_to_reach"](scope["config"], target=0.995)
    assert not reach.capped
    assert abs(reach.time - 9.1458) <= 1e-3, reach
