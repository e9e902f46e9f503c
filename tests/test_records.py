"""The shared JSONL read policy, checked once through every record loader."""

import json
import os

import pytest

from doctrain.cli import _load_assignments, main
from doctrain.corpus import load_corpus
from doctrain.errors import ParseError
from doctrain.finetune import load_pairs, load_span_qa, load_token_class
from doctrain.mining import load_triplets

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# loader -> one valid record; dropping its first field makes it invalid
LOADERS = {
    "corpus": (load_corpus, {"id": "a", "text": "One sentence."}),
    "triplets": (load_triplets, {"anchor_id": "a", "positive_id": "b",
                                 "negative_id": "c"}),
    "assignments": (_load_assignments, {"id": "a", "path": ["x", "y"]}),
    "span-qa": (load_span_qa, {"question": ["q"], "context": ["c", "d"],
                               "answer": [0, 1]}),
    "token-class": (load_token_class, {"tokens": ["a", "b"],
                                       "labels": [0, 1]}),
    "pairs": (load_pairs, {"first": ["a"], "second": ["b"], "label": 1}),
}


def _bad_file(path, good: dict):
    """Line 1 valid, line 2 blank, line 3 not JSON, line 4 lacks a field."""
    first = next(iter(good))
    lacking = {k: v for k, v in good.items() if k != first}
    path.write_text(json.dumps(good) + "\n\nnot json\n"
                    + json.dumps(lacking) + "\n")
    return path


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_bad_line_is_reported_in_one_parse_error(tmp_path, name):
    load, good = LOADERS[name]
    path = _bad_file(tmp_path / "bad.jsonl", good)
    with pytest.raises(ParseError) as exc:
        load(path)
    msg = str(exc.value)
    assert str(path) in msg
    rest = msg.replace(str(path), "")
    assert "line 3" in rest and "line 4" in rest
    assert "line 1" not in rest and "line 2" not in rest


def test_bad_assignments_exit_3(tmp_path, capsys):
    bad = _bad_file(tmp_path / "assign.jsonl", LOADERS["assignments"][1])
    rc = main(["pretrain", "--corpus",
               os.path.join(FIXTURES, "sample_corpus.jsonl"),
               "--out", str(tmp_path / "m.ckpt"), "--mode", "customer_support",
               "--taxonomy", os.path.join(FIXTURES, "support_taxonomy.txt"),
               "--assignments", str(bad)])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "line 3" in err and "line 4" in err
    assert not os.path.exists(tmp_path / "m.ckpt")
