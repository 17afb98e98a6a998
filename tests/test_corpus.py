"""The command line's byte-identity corpus as a standing check.

``tests/cli_corpus.py`` prints one line per request, the SHA-256 of its exit
status, stdout and stderr and then its argv; ``tests/corpus.txt`` holds those
lines as committed.  A change that means to change an output regenerates the
file (``python tests/cli_corpus.py > tests/corpus.txt``) and names each
changed request.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _argv_counts(lines):
    return Counter(line.split(" ", 1)[1] for line in lines)


def corpus_drift(want, got):
    """Each request whose line changed, appeared or went, as 'changed: argv'."""
    missing, extra = Counter(want) - Counter(got), Counter(got) - Counter(want)
    went, came = _argv_counts(missing.elements()), _argv_counts(extra.elements())
    changed = went & came
    return (
        [f"changed: {argv}" for argv in changed.elements()]
        + [f"went: {argv}" for argv in (went - changed).elements()]
        + [f"appeared: {argv}" for argv in (came - changed).elements()]
    )


def test_drift_names_each_request_that_changed_appeared_or_went():
    want = ["a1 solve --spectrum 3", "b2 sqrt --mus 4", "c3 forward --a 2"]
    got = ["a1 solve --spectrum 3", "bX sqrt --mus 4", "d4 signreg --a 1"]
    assert corpus_drift(want, want) == []
    assert corpus_drift(want, got) == [
        "changed: sqrt --mus 4",
        "went: forward --a 2",
        "appeared: signreg --a 1",
    ]


def test_every_request_prints_its_committed_line():
    # the script sets its own working directory and terminal width
    run = subprocess.run(
        [sys.executable, str(TESTS / "cli_corpus.py")], capture_output=True, text=True, check=True
    )
    want = (TESTS / "corpus.txt").read_text().splitlines()
    drift = corpus_drift(want, run.stdout.splitlines())
    assert not drift, f"{len(drift)} of {len(want)} corpus requests drifted:\n" + "\n".join(drift)
