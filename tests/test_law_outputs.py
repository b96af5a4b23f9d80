"""Law output is pinned: every law suite, and ``prop5.10 --max-sem 3``, run
in process at two fixed law seeds, must print what the pinned digest
records.  A speed-up must not change what a law prints; a change that means
to (new corpora, new report lines) re-pins the digest and says so in
CHANGES.md.

The digest is the sha256 of ``json.dumps`` of the list of
``[argv, exit code, stdout]``, in the order below.
"""

import hashlib
import json

from cxtcat.cli import main
from cxtcat.laws import LAWS

SPECS = [(name,) for name in LAWS] + [("prop5.10", "--max-sem", "3")]
LAW_SEEDS = (1, 2)
PINNED = "cfec7f113e09469b335f62688ec5897ac73e025cbfa8786723624f9c238b3ef7"


def test_law_outputs_match_the_pinned_digest(capsys):
    runs = []
    for seed in LAW_SEEDS:
        for name, *extra in SPECS:
            argv = ["laws", name, "--seed", str(seed), *extra]
            code = main(argv)
            runs.append([argv, code, capsys.readouterr().out])
    assert all(code == 0 for _, code, _ in runs)
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == PINNED
