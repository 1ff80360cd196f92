"""tools/snapshot_outputs.py --compare: per-configuration report of two snapshots."""

import importlib.util
from pathlib import Path

from torusma.geometry import GridFunction
from torusma.gridio import read_grid, write_grid

TOOL = Path(__file__).resolve().parent.parent / "tools" / "snapshot_outputs.py"
_spec = importlib.util.spec_from_file_location("snapshot_outputs", TOOL)
snapshot_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot_outputs)


def test_compare_reports_exit_codes_and_moves(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        snapshot_outputs.snapshot("solve", "solve", {"torus": {"n": 1, "N": 64}},
                                  str(d))
    capsys.readouterr()
    assert snapshot_outputs.compare(str(a), str(b)) == 0
    assert capsys.readouterr().out == "solve: exit 0 = exit 0, identical\n"

    run = b / "solve"
    phi = read_grid(run / "out" / "phi.cmag")
    write_grid(run / "out" / "phi.cmag",
               GridFunction(phi.torus, phi.values * (1.0 + 1e-12)))
    rows = (run / "out" / "solve.csv").read_text().splitlines()
    (run / "out" / "solve.csv").write_text("\n".join(rows[:-1]) + "\n")
    summary = (run / "summary.txt").read_text()
    (run / "summary.txt").write_text(summary.replace("exit 0", "exit 2", 1))
    (run / "out" / "extra.csv").write_text("x\n1\n")

    assert snapshot_outputs.compare(str(a), str(b)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "solve: exit 0 != exit 2",
        f"  out/extra.csv: only in {b}",
        "  out/phi.cmag: 1.00e-12",
        f"  out/solve.csv: rows {len(rows) - 1} -> {len(rows) - 2}",
        "  summary.txt: differs",
    ]


def test_summary_value_relative_to_its_csv_column(tmp_path, capsys):
    # solve's summary residual is the last entry of solve.csv's residual
    # column, so its move is taken relative to that column's sup
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        snapshot_outputs.snapshot("solve", "solve", {"torus": {"n": 1, "N": 64}},
                                  str(d))
    capsys.readouterr()
    summary = (b / "solve" / "summary.txt").read_text()
    residual = summary.split("residual=")[1].split()[0]
    moved = 2.0 * float(residual) + 1e-14
    (b / "solve" / "summary.txt").write_text(
        summary.replace(f"residual={residual}", f"residual={moved!r}"))
    column = [float(r.split(",")[1]) for r in
              (a / "solve" / "out" / "solve.csv").read_text().splitlines()[1:]]
    expected = abs(moved - float(residual)) / max(map(abs, column))

    assert snapshot_outputs.compare(str(a), str(b)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "solve: exit 0 = exit 0",
        f"  summary.txt: residual {expected:.2e}",
    ]
    assert expected < 1e-13
