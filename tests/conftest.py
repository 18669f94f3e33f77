"""Let the mapgenus processes that tests start import the in-tree package,
and skip the tests marked ``slow`` unless ``MAPGENUS_SLOW`` is set.

``pythonpath = ["src"]`` in pyproject.toml puts ``src`` on this process's
``sys.path`` only; a child ``python -m mapgenus`` sees it through
``PYTHONPATH``.
"""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


def pytest_collection_modifyitems(config, items):
    if "MAPGENUS_SLOW" not in os.environ:
        skip = pytest.mark.skip(reason="slow; set MAPGENUS_SLOW=1 to run it")
        for item in items:
            if item.get_closest_marker("slow"):
                item.add_marker(skip)
