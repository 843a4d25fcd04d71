"""Every benchmark corpus case gives the output recorded in
corpus_outputs.json.

Each case of perfbench/corpus/*.json runs in process through the case
classes of perfbench/worker.py (the calls and the output summaries that a
benchmark pass checks), and its result is compared with the recorded one.
A change that means to move an output rewrites the file from the changed
tree, from the root of the repository:

    PYTHONPATH=src python tests/test_corpus_outputs.py > tests/corpus_outputs.json

and says which outputs moved and why.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worker  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "corpus_outputs.json")


def corpus_outputs() -> dict:
    """{workload: {case id: output}} over every corpus case, as JSON."""
    out = {}
    for workload, kind in sorted(worker.KINDS.items()):
        with open(os.path.join(ROOT, "perfbench", "corpus",
                               f"{workload}.json")) as fh:
            cases = json.load(fh)["cases"]
        out[workload] = {c["id"]: kind(c["input"])() for c in cases}
    return json.loads(json.dumps(out))


def test_corpus_outputs_match_the_record():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = corpus_outputs()
    assert got.keys() == want.keys()
    for workload in want:
        assert got[workload].keys() == want[workload].keys(), workload
        moved = [cid for cid in want[workload]
                 if got[workload][cid] != want[workload][cid]]
        assert not moved, (workload, moved)


if __name__ == "__main__":
    json.dump(corpus_outputs(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
