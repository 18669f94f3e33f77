"""Let the mapgenus processes that tests start import the in-tree package.

``pythonpath = ["src"]`` in pyproject.toml puts ``src`` on this process's
``sys.path`` only; a child ``python -m mapgenus`` sees it through
``PYTHONPATH``.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
