"""Link this interpreter's pytest and Hypothesis into a directory that another
CPython can put on its path to run the tier-1 suite.

    python tools/testpath.py DIR
    PYTHONPATH=src:DIR python3.12 -B -m pytest -q -W error

Run it with the interpreter that has pytest and Hypothesis installed.  It
walks their requirements through the installed metadata, skips those that
only an extra asks for, and puts in DIR one symbolic link per top-level
module, package and `.dist-info` directory of each distribution found;
nothing is copied, installed or downloaded.  Every such distribution is pure
Python (Pygments included, which pytest imports to colour its output), so
the same files serve 3.12 and 3.13.  Other pytest plugins installed here,
such as pytest-benchmark, stay out of DIR: pytest loads every plugin whose
metadata it finds, and their modules are not linked.  A requirement that is
not installed here is named on stderr with its marker, for example
exceptiongroup and tomli, which only Python 3.10 needs; without them 3.10
cannot run the suite this way.

`-B` keeps the other interpreter from writing its bytecode through the links
into this interpreter's site-packages.
"""

import re
import sys
from importlib import metadata
from pathlib import Path

ROOTS = ("pytest", "hypothesis")


def distributions():
    """The installed distributions that ROOTS need, and the requirements missing."""
    found, missing, todo = {}, [], [*ROOTS]
    while todo:
        requirement = todo.pop()
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        key = re.sub(r"[-_.]+", "-", name).lower()
        if key in found:
            continue
        try:
            found[key] = dist = metadata.distribution(name)
        except metadata.PackageNotFoundError:
            found[key] = None
            missing.append(requirement)
            continue
        todo += [req for req in dist.requires or [] if "extra ==" not in req]
    return [dist for dist in found.values() if dist], missing


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit("usage: python tools/testpath.py DIR")
    target = Path(argv[0])
    target.mkdir(parents=True, exist_ok=True)
    found, missing = distributions()
    for dist in found:
        for top in sorted({path.parts[0] for path in dist.files or []} - {"..", "__pycache__"}):
            link = target / top
            if link.is_symlink():
                link.unlink()
            link.symlink_to(Path(dist.locate_file(top)).resolve())
    for requirement in missing:
        print(f"not installed: {requirement}", file=sys.stderr)


if __name__ == "__main__":
    main()
