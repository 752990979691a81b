"""Compiled programs and their blocker tables against a recorded golden.

``tests/golden/compile_digests.json`` was recorded at the parent of the
PR that indexed codegen's group table and rewrote the static-blocker
sweep (see ``_compile_digests.py``): 17 ``dse_cold_fast`` compile points
plus a resolved ``gpt_tiny`` step, every instruction field, every flow,
and the blocker tables at four windows mapped back to absolute indices.
The zoo goldens pin three networks' *cycles*; this pins what is emitted
and derived, bit for bit, on all of them.
"""

import json

from _compile_digests import GOLDEN, digests


def test_compile_digests_match_the_recorded_parent():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(golden)
    for key, recorded in golden.items():
        assert got[key]["stream"] == recorded["stream"], \
            f"{key}: emitted instruction streams / flows changed"
        assert got[key]["blockers"] == recorded["blockers"], \
            f"{key}: static blocker tables changed"
