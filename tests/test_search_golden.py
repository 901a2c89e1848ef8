"""The exact knowledge-state searches replay their golden corpus exactly."""
import json

import search_golden


def test_search_golden_corpus_replays_exactly():
    """Answers, state counts and reveal orders all come back unchanged."""
    cases = json.loads(search_golden.GOLDEN.read_text())
    assert {c["model"] for c in cases} == {"li", "static", "dag"}
    for i, case in enumerate(cases):
        got = search_golden.replay(case)
        for part, want in got.items():
            assert want == case[part], f"case {i} ({case['model']}): {part}"
