"""tools/ab_inproc.py: trees loaded side by side, outputs held bitwise."""

import importlib.util
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "ab_inproc", os.path.join(ROOT, "tools", "ab_inproc.py"))
ab_inproc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inproc)


def _trees(tmp_path):
    trees = []
    for name in ("a", "b"):
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(str(tmp_path / name))
    return trees


def test_two_copies_of_this_checkout_run_and_report_every_site(tmp_path, capsys):
    assert ab_inproc.main(["--trees", *_trees(tmp_path), "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("2 pairs, seed 0")
    for site, line in zip(ab_inproc.SITES, out[1:]):
        assert line.startswith(site) and "A/B parent/change" in line and "A/A parent/copy" in line


def test_a_tree_whose_arithmetic_differs_fails(tmp_path, capsys):
    parent, change = _trees(tmp_path)
    path = os.path.join(change, "src", "fedpart", "objectives.py")
    with open(path) as f:
        text = f.read()
    assert "margin /= scale" in text
    with open(path, "w") as f:
        f.write(text.replace("margin /= scale", "margin *= 1.0 / scale"))
    assert ab_inproc.main(["--trees", parent, change, "--pairs", "1"]) == 1
    assert "the change tree's output differs" in capsys.readouterr().err


def test_a_tree_without_src_fedpart_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    parent, _ = _trees(tmp_path)
    assert ab_inproc.main(["--trees", parent, str(tmp_path / "empty")]) == 2
    assert "change tree" in capsys.readouterr().err
