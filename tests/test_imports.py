"""A CLI call imports only the modules its command runs."""

import json
import subprocess
import sys

import pytest

SCRIPT = """
import json, sys

def loaded(before):
    return sorted(set(sys.modules) - before)

before = set(sys.modules)
import qappell
package = loaded(before)
before = set(sys.modules)
import qappell.cli
cli = loaded(before)
before = set(sys.modules)
qappell.cli.main(["roots", "--family", "euler", "--q", "1/2", "-n", "2"])
roots = loaded(before)
print(json.dumps({"package": package, "cli": cli, "roots": roots}))
"""


def test_import_footprint():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert [m for m in loaded["package"] if m.startswith("qappell.")] == []
    assert {"qappell.audit", "qappell.roots", "dataclasses"} & set(loaded["cli"]) == set()
    assert "qappell.cli" in loaded["cli"]
    assert "qappell.roots" in loaded["roots"]
    assert "qappell.audit" not in loaded["roots"]


def _added_by(statements: str) -> set[str]:
    """The modules a fresh interpreter loads while running the statements."""
    script = (
        "import sys\nbefore = set(sys.modules)\n"
        f"{statements}\nprint(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_audit_runs_no_code_generator():
    # dataclasses pulls in inspect, ast and dis; the fixture is read by path
    added = _added_by("import qappell.audit")
    assert "qappell.audit" in added
    assert {"dataclasses", "inspect", "ast", "dis", "importlib.resources"} & added == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["numbers", "--family", "euler", "--q", "1/2", "-n", "3", "--format", "text"],
        # the published genocchi numbers are a constant of families, not a fixture read
        ["numbers", "--family", "genocchi-table", "--q", "1/2", "-n", "4", "--format", "text"],
    ],
    ids=["euler", "genocchi-table"],
)
def test_text_output_loads_no_json(argv):
    added = _added_by(f"import qappell.cli\nqappell.cli.main({argv!r})")
    assert "qappell.cli" in added
    assert "json" not in added
