"""The installed-package checks of CI (tests/installed_checks.sh), run
against src/: a `squashfitts` command and a `python` on PATH that import
the package from src/, in an empty temporary directory."""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@pytest.mark.skipif(shutil.which("bash") is None or not os.path.exists("/dev/full"),
                    reason="the checks need bash and /dev/full")
def test_installed_checks_pass_against_src(tmp_path):
    bin_dir = tmp_path / "bin"
    work = tmp_path / "work"
    bin_dir.mkdir()
    work.mkdir()
    # the console script pip writes for the squashfitts entry point
    (bin_dir / "squashfitts").write_text(
        f"#!{sys.executable}\nimport sys\nfrom squashfitts.cli import console_main\n"
        "sys.exit(console_main())\n")
    (bin_dir / "python").write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    for shim in bin_dir.iterdir():
        shim.chmod(0o755)
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
           "PYTHONPATH": str(SRC)}
    # -x traces each command to stderr: the last one traced is the check that failed
    done = subprocess.run(["bash", "-x", str(HERE / "installed_checks.sh")], cwd=work, env=env,
                          capture_output=True, text=True, errors="replace", timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
