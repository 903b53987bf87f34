"""Every name a module lists in `__all__` exists, so `import *` works."""

import pkgutil

import pytest

import grhecke

# importing grhecke.__main__ runs the command line, so it is left out
MODULES = ["grhecke"] + [
    f"grhecke.{info.name}" for info in pkgutil.iter_modules(grhecke.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1  # more than __builtins__
