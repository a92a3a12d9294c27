"""CLI surface of the service: the ``serve`` command exists, ``bench``
accepts the service suite, and — the import-hygiene gate — commands
that don't serve never import the server stack."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _run_and_list_service_modules(argv):
    """Run one CLI invocation in a fresh interpreter and report which
    ``repro.service`` modules ended up imported."""
    code = (
        "import sys\n"
        "from repro.__main__ import main\n"
        "try:\n"
        f"    status = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    status = exc.code or 0\n"
        "assert not status, f'exit status {status}'\n"
        "leaked = sorted(name for name in sys.modules\n"
        "                if name.startswith('repro.service'))\n"
        "print('SERVICE_MODULES=' + ','.join(leaked))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    marker = [line for line in result.stdout.splitlines()
              if line.startswith("SERVICE_MODULES=")]
    assert marker, result.stdout
    modules = marker[-1].split("=", 1)[1]
    return [name for name in modules.split(",") if name]


def test_list_does_not_import_the_server_stack():
    assert _run_and_list_service_modules(["list"]) == []


def test_serve_help_does_not_import_the_server_stack():
    assert _run_and_list_service_modules(["serve", "--help"]) == []


def test_importing_repro_does_not_import_the_service():
    code = (
        "import sys, repro\n"
        "leaked = [name for name in sys.modules\n"
        "          if name.startswith('repro.service')]\n"
        "assert not leaked, leaked\n"
        "print('CLEAN')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "CLEAN" in result.stdout


def test_bench_parser_accepts_the_service_suite():
    from repro.__main__ import build_parser
    args = build_parser().parse_args(["bench", "--suite", "service"])
    assert args.suite == "service"


def test_serve_parser_defaults():
    from repro.__main__ import build_parser
    args = build_parser().parse_args(["serve"])
    assert args.host == "127.0.0.1"
    assert args.port == 7471
    assert args.grace == 5.0
