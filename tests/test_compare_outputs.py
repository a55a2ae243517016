"""scripts/compare_outputs.py's summary of what moved between two generate
outputs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def hyp(*rows: tuple[str, float]) -> bytes:
    return "".join(json.dumps({"id": f"index:{i}", "question": q.split(), "score": s})
                   + "\n" for i, (q, s) in enumerate(rows)).encode()


def test_equal_files_move_nothing():
    data = hyp(("what is it ?", -0.5), ("who ?", -1.25))
    assert compare_outputs.hyp_moves(data, data) == {"questions_differ": 0,
                                                     "max_abs_dscore": 0.0}


def test_counts_moved_questions_and_the_largest_score_change():
    base = hyp(("what is it ?", -0.5), ("who ?", -1.25), ("where ?", -2.0))
    here = hyp(("what is it ?", -0.5 + 2 ** -52), ("who is ?", -1.0), ("where ?", -2.125))
    assert compare_outputs.hyp_moves(base, here) == {"questions_differ": 1,
                                                     "max_abs_dscore": 0.25}


def test_a_row_only_one_file_has_counts_as_moved():
    base = hyp(("what is it ?", -0.5), ("who ?", -1.25))
    here = hyp(("what is it ?", -0.5))
    assert compare_outputs.hyp_moves(base, here) == {"questions_differ": 1,
                                                     "max_abs_dscore": 0.0}
    assert compare_outputs.hyp_moves(b"", here)["questions_differ"] == 1
