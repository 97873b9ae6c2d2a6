import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fdrelay import cli

TINY_CFG = """\
num_relays = 2
zeta = 0.001
p_s_max_db = 20
p_r_max_db = 20
i_bar_p_db = 10
"""


def write_cfg(tmp_path, text=TINY_CFG, name="net.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_run_rate_vs_ibar(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep.csv"
    code = cli.main(["run", "--experiment", "rate-vs-ibar", "--config", cfg,
                     "--realizations", "2", "--ibar-db", "0,6",
                     "--scenarios", "noncoherent,coherent", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 2 * 2 * 2
    assert {r["scenario"] for r in rows} == {"noncoherent", "coherent"}
    assert f"wrote {len(rows)} rows" in capsys.readouterr().out


def test_run_fixed_sweep_defaults(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "shape.csv"
    code = cli.main(["run", "--experiment", "rate-vs-pr", "--config", cfg,
                     "--realizations", "1", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    # fixed-power studies default to the single 8 dB cap, strong leakage
    assert {r["i_bar_p_db"] for r in rows} == {"8"}
    assert {r["zeta"] for r in rows} == {"0.4"}
    assert {r["scenario"] for r in rows} == {"unconstrained"}
    assert len(rows) == 71


def test_verify_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = cli.main(["verify", "--config", cfg, "--points", "200",
                     "--draws", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 9  # 8 checks + the suite line
    assert "FAIL" not in out
    assert "suite" in out


def test_verify_failure_exit_code(tmp_path, capsys):
    # zero leakage has no nonconvex region, so the witness checks cannot run
    # and must report failure rather than vacuous success
    cfg = write_cfg(tmp_path, TINY_CFG.replace("zeta = 0.001", "zeta = 0"))
    code = cli.main(["verify", "--config", cfg, "--points", "100",
                     "--draws", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_oracle_gap_table_and_csv(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    cfg = write_cfg(tmp_path, TINY_CFG.replace("num_relays = 2",
                                               "num_relays = 1"))
    code = cli.main(["oracle-gap", "--config", cfg, "--realizations", "2",
                     "--grid-n", "101", "--ibar-db", "6", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "worst cell" in printed
    rows = read_rows(out)
    assert len(rows) == 2 * 2
    assert all(r["gap_pct"] != "" for r in rows)


def test_missing_config_exits_2(tmp_path, capsys):
    code = cli.main(["verify", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_reports_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "num_relays = 2\nzeta == 0.1\n", name="bad.cfg")
    code = cli.main(["run", "--experiment", "rate-vs-ibar", "--config", cfg,
                     "--realizations", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert ":2:" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = cli.main(["run", "--experiment", "rate-vs-ibar", "--config", cfg,
                     "--realizations", "1", "--ibar-db", "0",
                     "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    assert "cannot write CSV" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [],                                      # no subcommand
    ["run", "--experiment", "rate-vs-ibar"],  # --out missing
    ["run", "--experiment", "nonsense", "--out", "x.csv"],
    ["run", "--experiment", "rate-vs-ibar", "--out", "x.csv",
     "--ibar-db", "zero"],
])
def test_argparse_rejections(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["run", "--experiment", "rate-vs-ibar", "--realizations", "0"],
    ["run", "--experiment", "rate-vs-ibar", "--zetas=-1"],
    ["run", "--experiment", "rate-vs-ibar", "--scenarios", "telepathic"],
    ["oracle-gap", "--grid-n", "1"],
    ["oracle-gap", "--realizations", "0"],
])
def test_bad_sweep_arguments_exit_2(argv, tmp_path, capsys):
    # the experiment spec's ValueError is reported like a bad config
    out = ["--out", str(tmp_path / "x.csv")] if argv[0] == "run" else []
    assert cli.main(argv + out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--points", "-5"],
    ["verify", "--points", "0"],
    ["verify", "--draws", "0"],
    ["verify", "--draws", "x"],
])
def test_verify_rejects_counts_below_one(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_console_script_installed(tmp_path):
    # Run the entry point declared in pyproject.toml the way a generated
    # console-script wrapper does, with this checkout first on the import
    # path: no install is needed and no other installed copy is picked up.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]["fdrelay"]
    module, _, func = entry.partition(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cfg = write_cfg(tmp_path)
    proc = subprocess.run([sys.executable, "-c", code, "verify", "--config",
                           cfg, "--points", "50", "--draws", "3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "suite" in proc.stdout
