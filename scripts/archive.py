"""A git revision's committed files in a directory of their own.

    from archive import extract_revision
    extract_revision("HEAD~1", Path("/tmp/base"))

The one way scripts/ab.py and scripts/same_outputs.py get the code of a
revision they compare: ``git archive`` of REV, unpacked with tar, so the
directory holds exactly what REV committed (no untracked file, no build
output, no .git). A revision git cannot resolve raises CalledProcessError
with git's message on stderr.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract_revision(rev: str, dest: Path) -> Path:
    """dest, created, holding the files REV of this repository committed."""
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest
