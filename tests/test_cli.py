"""Command-line front end tests, run in process through main(), and the
import footprint of a fresh process."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainwalk
from chainwalk import cli
from chainwalk.errors import FlaggedInstanceError


def test_regimes_csv(tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main(["regimes", "--step", "0.1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m_hat,k_hat,prior_best,this_paper,improved"
    assert len(lines) == 67
    assert all(line.count(",") == 4 for line in lines)
    again = tmp_path / "grid2.csv"
    assert cli.main(["regimes", "--step", "0.1", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_simulate_report(tmp_path):
    out = tmp_path / "report.json"
    argv = [
        "simulate", "--n", "4", "--m", "5", "--k", "0",
        "--ell", "3", "--seed", "2", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "completed"
    assert doc["params"] == {"n": 4, "m": 5, "k": 0}
    assert len(doc["tuples"]) == 1
    again = tmp_path / "report2.json"
    assert cli.main(argv[:-1] + [str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--n", "4", "--m", "5", "--k", "0", "--ell", "3"])
    assert info.value.code == 1


def test_simulate_parameter_error_is_exit_one(capsys):
    argv = [
        "simulate", "--n", "4", "--m", "5", "--k", "0",
        "--ell", "9", "--seed", "0",
    ]
    assert cli.main(argv) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_simulate_negative_seed_is_exit_one(capsys):
    argv = [
        "simulate", "--n", "4", "--m", "5", "--k", "0",
        "--ell", "1", "--seed", "-1",
    ]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


def test_simulate_flagged_instance_is_exit_two(monkeypatch, capsys):
    def boom(config):
        raise FlaggedInstanceError("synthetic.")
    monkeypatch.setattr(cli.chain, "run", boom)
    argv = [
        "simulate", "--n", "4", "--m", "5", "--k", "0",
        "--ell", "3", "--seed", "2",
    ]
    assert cli.main(argv) == 2
    assert "skipped" in capsys.readouterr().err


def test_verify_stats_csv(tmp_path, capsys):
    out = tmp_path / "stats.csv"
    argv = [
        "verify-stats", "--R", "16", "--M", "256",
        "--samples", "5000", "--seed", "9", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,M,samples,mean_Z,var_Z,c_hat,p_upper,p_lower"
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "16" and row[1] == "256" and row[2] == "5000"
    # thread count must not change the numbers
    alt = tmp_path / "stats2.csv"
    assert cli.main(argv[:-1] + [str(alt), "--threads", "3"]) == 0
    assert out.read_bytes() == alt.read_bytes()
    # a thread count below 1 is a usage error, not a silent single thread
    for bad in ("0", "-4", "abc"):
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--threads", bad])
        assert info.value.code == 1
        assert "--threads" in capsys.readouterr().err


def test_spectrum_values(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert cli.main(["spectrum", "--N", "6", "--R", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,R,delta_eigen,delta_closed,phase_gap,sqrt_delta"
    row = lines[1].split(",")
    assert row[0] == "6" and row[1] == "2"
    assert float(row[2]) == pytest.approx(0.75, abs=1e-9)
    assert float(row[3]) == pytest.approx(0.75, abs=1e-9)
    assert float(row[4]) >= float(row[5]) - 1e-9


def test_tradeoff_to_stdout(capsys):
    assert cli.main(["tradeoff", "--mhat", "1.4", "--khat", "0.3", "--steps", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ell_hat,time_exponent"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.0)
    assert float(first[1]) == pytest.approx(0.3 + 0.7)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["regimes", "--step", "0.1"],
         "a443337202fd6b7d453abd8458bd457390a8933c70a12a8759bc6b9e49f793a6"),
        (["tradeoff", "--mhat", "1.4", "--khat", "0.3", "--steps", "50"],
         "36fd44453fdb4cf676b8b096ad10ca968c11f043aa8d20984d3b14d7683b80ff"),
        (["verify-stats", "--R", "16", "--M", "256", "--samples", "5000", "--seed", "5"],
         "a50c23026328c61dff603e45dfa63e8a74daf52ef13b6460c65a4458e1263604"),
    ],
)
def test_csv_bytes_pinned(argv, digest, capsys):
    # the sha256 of each table's stdout; spectrum is left out, since its
    # eigensolver's last bits can differ between BLAS builds
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 1


def _fresh_modules(imports: str, *packages: str) -> str:
    """The modules of `packages` loaded in a fresh interpreter after
    `imports`, as the printed sorted list."""
    src = str(Path(chainwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    probe = (
        f"{imports}; import sys; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return out.stdout.strip()


def test_import_loads_no_scipy():
    """Every cwl call and every import of the package pays for what the
    package imports at module level; scipy is a test-only reference."""
    assert _fresh_modules("import chainwalk, chainwalk.cli", "scipy") == "[]"


def test_package_root_imports_no_submodule():
    """The package root defines only __version__, so importing it loads no
    chainwalk submodule and no numpy."""
    assert _fresh_modules("import chainwalk", "chainwalk", "numpy") == "['chainwalk']"


def test_oracle_imports_numpy_only_for_its_array():
    """oracle imports numpy inside FunctionTable.values() alone, so neither
    it nor the law and the vector layer, which read it, load numpy."""
    imports = "import chainwalk.oracle, chainwalk.law, chainwalk.statevector, chainwalk.amplify"
    assert _fresh_modules(imports, "numpy") == "[]"
