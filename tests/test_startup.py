"""Start-up in a fresh interpreter: the package imports no module until one
of its names is read, each command imports only what it runs, and the
rule registries of ``ring`` still reach every space from there.

The other CLI tests run in-process after every module has been loaded,
so only a new interpreter can show a command that misses an import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "QSCHUBERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


# (command line, stdout) with the values README.md gives
README_CALLS = [
    ("qprod --space A --m 3 --n 3 --lambda 3,2,1 --mu 2", "s[3,3,2] + q*s[2] + q*s[1,1]"),
    ("gw --space A --m 3 --n 3 --lambda 3,2,1 --mu 3,2,1 --nu 2,1 --d 1", "2"),
    ("gw --space A --m 3 --n 3 --lambda 3,2,1 --mu 3,2,1 --nu 2,1 --d 1 --method puzzle",
     "2"),
    ("qprod --space LG --n 3 --lambda 2,1 --mu 2", "2*s[3,2] + q*s[1]"),
    ("gw --space LG --n 3 --lambda 2,1 --mu 2 --nu 3,2 --d 1", "1"),
    ("qprod --space OG --n 3 --lambda 3,1 --mu 3", "q*t[1]"),
    ("gw --space OG --n 3 --lambda 3,1 --mu 3 --nu 3,2 --d 1", "1"),
    ("lr --m 2 --n 2 --lambda 1 --mu 1 --nu 1,1", "1"),
    ("lr --m 2 --n 2 --lambda 1 --mu 1 --nu 1,1 --method puzzle", "1"),
    ("puzzle --type 1step --nw 101 --ne 101 --s 011", "1"),
    ("puzzle --type 2step --nw 102021 --ne 102021 --s 010212", "2"),
    ("verify --suite line-numbers --max-n 2", "PASS (11 checks)"),
]


@pytest.mark.parametrize("argv, stdout", README_CALLS, ids=[c for c, _ in README_CALLS])
def test_each_command_runs_in_a_fresh_interpreter(argv, stdout):
    done = _python("-m", "qschubert.cli", *argv.split())
    assert (done.returncode, done.stdout, done.stderr) == (0, stdout + "\n", "")


def test_python_m_qschubert_is_the_command_line(capsys):
    from qschubert import cli

    argv, stdout = README_CALLS[2]
    done = _python("-m", "qschubert", *argv.split())
    code = cli.main(argv.split())
    assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)
    assert (done.returncode, done.stdout, done.stderr) == (0, stdout + "\n", "")


def _loaded_after(code: str) -> set[str]:
    """The qschubert modules, and hashlib, loaded after running ``code``."""
    done = _python("-c", code + "\nimport sys, json\nprint(json.dumps(sorted(m for m in "
                   "sys.modules if m.startswith('qschubert') or m == 'hashlib')))")
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_module():
    assert _loaded_after("import qschubert") == {"qschubert"}


ENGINES = {"qschubert.typea", "qschubert.isotropic", "qschubert.qpoly", "qschubert.puzzle",
           "qschubert.verify", "hashlib"}


@pytest.mark.parametrize("space, argv, needed", [
    ("A", "--m 3 --n 3 --lambda 3,2,1 --mu 2", {"qschubert.typea"}),
    ("LG", "--n 3 --lambda 2,1 --mu 2", {"qschubert.isotropic", "qschubert.qpoly"}),
    ("OG", "--n 3 --lambda 3,1 --mu 3", {"qschubert.isotropic", "qschubert.qpoly"}),
])
def test_qprod_without_cache_loads_only_its_space(space, argv, needed):
    call = ["qprod", "--space", space, *argv.split()]
    loaded = _loaded_after(f"from qschubert import cli\nassert cli.run({call!r})[0] == 0")
    assert loaded & ENGINES == needed
    assert {"qschubert.cli", "qschubert.ring", "qschubert.combinat"} <= loaded


def test_cached_qprod_loads_no_hashlib(tmp_path):
    cache = tmp_path / "cache.jsonl"
    call = ["qprod", "--space", "LG", "--n", "3", "--lambda", "2,1", "--mu", "2",
            "--cache", str(cache)]
    for _ in ("miss", "hit"):
        loaded = _loaded_after(f"from qschubert import cli\nassert cli.run({call!r})[0] == 0")
        assert "hashlib" not in loaded
    assert len(cache.read_text().splitlines()) == 1  # the second call was a hit


def test_star_import_binds_every_public_name():
    code = ("import qschubert\n"
            "assert set(qschubert.__all__) <= set(dir(qschubert))\n"
            "from qschubert import *\n"
            "assert all(name in globals() for name in qschubert.__all__)\n"
            "assert qschubert.ContractViolation is qschubert.qpoly.ContractViolation\n"
            "assert qschubert.Report is qschubert.typea.Report")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr


def test_ring_alone_reaches_every_space():
    code = ("from qschubert import ring\n"
            "A = ring.Space.of('A', 3, 3)\n"
            "assert ring.gw(A, (3, 2, 1), (3, 2, 1), (2, 1), 1) == 2\n"
            "assert ring.folded_product(A, (3, 2, 1), (2,)).text() == "
            "'s[3,3,2] + q*s[2] + q*s[1,1]'\n"
            "LG, OG = ring.Space.of('LG', None, 3), ring.Space.of('OG', None, 3)\n"
            "assert ring.folded_product(LG, (2, 1), (2,)).text() == '2*s[3,2] + q*s[1]'\n"
            "assert ring.gw(LG, (2, 1), (2,), (3, 2), 1) == 1\n"
            "assert ring.folded_product(OG, (3, 1), (3,)).text() == 'q*t[1]'\n"
            "assert ring.gw(OG, (3, 1), (3,), (3, 2), 1) == 1")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
