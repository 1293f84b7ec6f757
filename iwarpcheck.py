"""Repo-root shim: lets ``python -m iwarpcheck`` work from a checkout
without installing anything or exporting PYTHONPATH.

``python -m`` puts the current directory first on ``sys.path``, so this
module is what gets executed; it prepends ``tools/`` (where the real
package lives) and ``src/`` (the explorer runs the live ``repro``
stack), re-resolves the import so
``iwarpcheck`` names the package, then delegates to its CLI.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.abspath(__file__))
# Force src/ then tools/ to the FRONT: if tools/ sits behind the repo
# root (pytest prepends the rootdir during collection), the re-import
# below would find this shim again and recurse instead of the package.
for _entry in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tools")):
    if _entry in sys.path:
        sys.path.remove(_entry)
    sys.path.insert(0, _entry)
sys.modules.pop("iwarpcheck", None)

from iwarpcheck.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
