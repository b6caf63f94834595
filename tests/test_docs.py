"""The docs name only paths and anchors that exist.

Runs ``scripts/check_doc_links.py`` in-process, so a doc that still
names a deleted file fails Tier-1 and not only the CI ``docs`` job.
"""

import runpy
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "scripts" / "check_doc_links.py"


def test_doc_links_and_path_references_resolve(capsys):
    status = runpy.run_path(str(CHECKER))["main"]()
    assert status == 0, capsys.readouterr().out
