"""tests/digest_diff.py counts shared and differing ops, in all and per slot."""

import json

import digest_diff


def test_counts_per_slot(tmp_path, capsys):
    old = {"0:0:eval-poly": "a", "0:1:separate": "b", "1:2:eval-poly": "c", "1:3:bound": "d"}
    new = {"0:0:eval-poly": "a", "0:1:separate": "x", "1:2:eval-poly": "c"}
    paths = []
    for name, digests in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(digests))
        paths.append(str(tmp_path / name))
    assert digest_diff.main(paths) == 1
    assert capsys.readouterr().out.splitlines() == [
        "shared 3 differ 1",
        "slot eval-poly: shared 2 differ 0",
        "slot separate: shared 1 differ 1",
        "differs: 0:1:separate",
    ]
    assert digest_diff.main([paths[0], paths[0]]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "shared 4 differ 0"
