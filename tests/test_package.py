"""Package-level import surface."""

import os
import subprocess
import sys


def test_import_repro_leaves_analysis_unloaded():
    """``import repro`` (and so every ``repro sweep``) does not pay for
    the analysis layer; ``repro.analysis`` still resolves on access."""
    code = (
        "import sys, repro\n"
        "assert 'repro.analysis' not in sys.modules, 'eager import'\n"
        "from repro import analysis\n"
        "assert repro.analysis is analysis is sys.modules['repro.analysis']\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_cli_import_leaves_gate_layers_unloaded():
    """``import repro.__main__`` (every CLI start-up, ``repro sweep`` and
    ``repro serve`` included) does not load the analysis, artifact or
    service layers; a gate subcommand imports them when it runs."""
    code = (
        "import sys, repro.__main__\n"
        "loaded = [m for m in ('repro.analysis', 'repro.artifacts', "
        "'repro.service') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
