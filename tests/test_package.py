"""Which modules the package and each CLI subcommand load."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ANGLES = str(ROOT / "data" / "angles.csv")
GOLDEN_MODEL = str(ROOT / "tests" / "data" / "angles_r1.cc4.golden")
GOLDEN_MODEL_V2 = str(ROOT / "tests" / "data" / "angles_r1_v2.cc4.golden")

# Runs one subcommand through cli.main, then prints its exit code and the
# package modules the process has loaded.
PROBE = """
import contextlib, io, sys
from unarynet import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "unarynet"))
"""


def run_probe(probe, argv):
    """The words a probe prints, run in a fresh interpreter on src/."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["table", "--which", "1"], {"tables", "bitvec", "codes"}),
        (["predict", "--model", GOLDEN_MODEL, "--input", "0000"], {"cc4", "bitvec"}),
        (["train", "--data", ANGLES, "--radius", "0", "--bins", "4", "--length", "4",
          "--out", "{tmp}"], {"dataset", "cc4", "codes", "bitvec"}),
        (["check", "--grid", "quick", "--machine"],
         {"checks", "cc4", "codes", "rng", "bitvec"}),
        (["eval", "--model", GOLDEN_MODEL_V2, "--data", ANGLES],
         {"dataset", "cc4", "codes", "bitvec"}),
        (["sweep", "--data", ANGLES, "--r-min", "0", "--r-max", "1"],
         {"dataset", "cc4", "codes", "bitvec"}),
        (["encode", "--family", "fixed", "--n", "3", "--length", "5"], {"codes", "bitvec"}),
        (["decode", "--family", "fixed", "--word", "00111"], {"codes", "bitvec"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_subcommand_loads_only_its_modules(tmp_path, argv, loaded):
    argv = [a.format(tmp=tmp_path / "m.cc4") for a in argv]
    code, *modules = run_probe(PROBE, argv)
    assert code == "0"
    assert set(modules) == {"unarynet", "unarynet.cli"} | {
        f"unarynet.{m}" for m in loaded}


# The standard modules that dataclasses brings in (the README's Start-up cost
# section lists them), none of which a record of bitvec, cc4 or checks needs.
HEAVY = ("dataclasses", "inspect", "ast", "_ast", "dis", "opcode", "_opcode", "tokenize",
         "token", "linecache", "copy", "importlib.machinery")

# Runs one subcommand through cli.main, then prints its exit code and which
# of HEAVY it loaded that were not loaded before it ran.
HEAVY_PROBE = f"""
import contextlib, io, sys
before = set(sys.modules)
from unarynet import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(set({HEAVY!r}) & set(sys.modules) - before))
"""


@pytest.mark.parametrize(
    "argv",
    [["table", "--which", "1"],
     ["encode", "--family", "fixed", "--n", "3", "--length", "5"],
     ["decode", "--family", "fixed", "--word", "00111"],
     ["predict", "--model", GOLDEN_MODEL, "--input", "0000"],
     ["predict", "--model", GOLDEN_MODEL_V2, "--input", "0000"],
     ["check", "--grid", "quick"]],
    ids=["table", "encode", "decode", "predict-v1", "predict-v2", "check"],
)
def test_code_subcommands_load_neither_dataclasses_nor_inspect(argv):
    # BitWord, the cc4 records and the check records subclass bitvec.Record,
    # not dataclasses, so the commands that need no Dataset skip importing
    # dataclasses and the eleven other HEAVY modules it brings in
    assert run_probe(HEAVY_PROBE, argv) == ["0"]



def test_package_import_loads_no_submodule():
    # names are imported from their modules, so the package file imports none
    probe = """
import sys
import unarynet
print(*sorted(m for m in sys.modules if m.split(".")[0] == "unarynet"))
"""
    assert run_probe(probe, []) == ["unarynet"]
