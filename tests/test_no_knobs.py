"""The library takes its settings from its arguments only: no module under
``src/adele_forge`` reads the process environment, so no environment
variable can change a result or switch an algorithm."""

import re
from pathlib import Path

import adele_forge

PACKAGE = Path(adele_forge.__file__).resolve().parent
# os.environ, os.getenv and their bytes forms, however they are imported
READS_ENVIRONMENT = re.compile(r"\b(environb?|getenvb?)\b")


def test_library_reads_no_environment_variable():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = [
        "%s:%d: %s" % (path.relative_to(PACKAGE), i, line.strip())
        for path in modules
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if READS_ENVIRONMENT.search(line)
    ]
    assert not found, "the library reads the environment:\n" + "\n".join(found)
    for line in ("x = os.environ['A']", "from os import getenv", "os.environb"):
        assert READS_ENVIRONMENT.search(line)
