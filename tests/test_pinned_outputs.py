"""Pinned output bytes: the default seed-42 runs of every scenario.

Each scenario runs through the CLI into a fresh directory, and the whole
output tree is hashed: SHA-256 over each file's relative path and bytes, in
sorted path order. A change that moves any default output byte on purpose
updates the digest here and says why in CHANGES.md.
"""

import hashlib

import pytest

from fertisim.cli import main

PINNED = {
    "growth": "1ae1b5486789ce03b7a0dc501ff805cb92506536e21bbd79c84d234bfe8fff26",
    "monitor": "8fb9969ad78178ee6d1f958e6e46472e19bb64055b528a8d85a3cce1682c4224",
    "compare": "44426c20395274beedd1cb26b7522c39299e1d9ae58385f0b1eff6631caa95ff",
}


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_default_outputs_match_pinned_digest(scenario, tmp_path, capsys):
    out = tmp_path / scenario
    assert main([scenario, "--seed", "42", "--out", str(out)]) == 0
    assert tree_digest(out) == PINNED[scenario]
