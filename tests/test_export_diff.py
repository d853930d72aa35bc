import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "export_diff.py"
spec = importlib.util.spec_from_file_location("export_diff", TOOL)
export_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(export_diff)


def test_moved_lines_pairs_each_changed_line_with_its_numbers():
    old = b"# head\n1.0,0.123456789\n2.0,0.5\n"
    new = b"# head\n1.0,0.12345679\n2.0,0.5\n"
    lines, count = export_diff.moved_lines(old, new)
    assert lines == ["      2 - 1.0,0.123456789", "      2 + 1.0,0.12345679"]
    assert count == 1


def test_compare_counts_moved_and_one_sided_files(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree, moved in ((old, b"a\nb\n"), (new, b"a\nc\n")):
        (tree / "p").mkdir(parents=True)
        (tree / "p" / "same.csv").write_bytes(b"x\n")
        (tree / "p" / "moved.csv").write_bytes(moved)
    (new / "p" / "added.csv").write_bytes(b"y\n")
    assert export_diff.compare(old, new) == (3, 2, 1)
    out = capsys.readouterr().out
    assert "p/moved.csv: 1 line moved" in out and "p/added.csv: only in new" in out
    assert "same.csv" not in out
