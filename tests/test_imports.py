"""A CLI call imports only the modules its command runs."""

import json
import subprocess
import sys

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
