"""A fresh process imports only what its subcommand runs, and the package
resolves its public names on first access."""

import functools
import subprocess
import sys
from pathlib import Path

import pytest

import tjurina

SRC = str(Path(tjurina.__file__).resolve().parent.parent)

# the warm-up request of each benchmark workload, one per subcommand
REQUESTS = {
    "analyze": ["analyze", "--curve=x^3-y^3+x^4", "--point=0,0", "--json"],
    "classify": ["classify", "--curve=y^2-x^3+x^4", "--point=0,0", "--json"],
    "family": ["family", "--a", "3", "--b", "6", "--c", "1", "--verify-gb", "--json"],
    "global-tjurina": ["global-tjurina", "--curve=x0*x1*(x0+x1)*(x0-x1+x2)", "--json"],
}

# Runs in a fresh `python -I -S`: no site, no environment, only the package
# sources added to the standard library's path.  Prints the package's
# submodules after a bare import, the request's exit code, then every loaded
# module.
_PROBE = """
import io, sys
sys.path.insert(0, sys.argv[1])
import tjurina
print(",".join(sorted(n for n in sys.modules if n.startswith("tjurina."))))
from tjurina import cli
print(cli.main(sys.argv[2:], out=io.StringIO()))
print(",".join(sorted(sys.modules)))
"""

NEVER = {"dataclasses", "inspect"}
NOT_LOADED = {
    "analyze": {"tjurina.family"},
    "classify": {"tjurina.family"},
    "global-tjurina": {"tjurina.family", "tjurina.analyzer", "tjurina.binforms"},
    "family": set(),
}


@functools.lru_cache(maxsize=None)
def _cold_start(command):
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _PROBE, SRC, *REQUESTS[command]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bare, code, loaded = proc.stdout.splitlines()
    return bare, int(code), frozenset(loaded.split(","))


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_a_subcommand_loads_only_its_engine(command):
    bare, code, loaded = _cold_start(command)
    assert bare == ""  # import tjurina loads no submodule
    assert code == 0
    assert "tjurina.cli" in loaded and "tjurina.lengths" in loaded
    assert not loaded & NEVER
    assert not loaded & NOT_LOADED[command]


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_a_well_formed_request_builds_no_argparse_parser(command):
    # the option table reads it; argparse is built, and even imported, only
    # for an argv the table leaves to it
    _bare, code, loaded = _cold_start(command)
    assert code == 0
    assert "argparse" not in loaded


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tjurina import *", namespace)
    assert set(tjurina.__all__) <= set(namespace)
    assert len(tjurina.__all__) == len(set(tjurina.__all__)) == len(tjurina._EXPORTS)


def test_each_public_name_is_the_defining_submodules_object():
    import importlib

    for name, module in tjurina._EXPORTS.items():
        owner = importlib.import_module(f"tjurina.{module}")
        value = getattr(tjurina, name)
        assert value is getattr(owner, name), name
        if isinstance(value, type) or callable(value):
            assert value.__module__ == owner.__name__, name


def test_reading_names_leaves_the_package_namespace_alone():
    for name in tjurina.__all__:
        getattr(tjurina, name)
    before = dict(vars(tjurina))
    for name in tjurina.__all__:
        getattr(tjurina, name)
    assert vars(tjurina) == before
    assert not set(tjurina.__all__) & set(vars(tjurina))


def test_dir_lists_the_public_names():
    names = dir(tjurina)
    assert "__all__" in names and set(tjurina.__all__) <= set(names)
    assert names == sorted(names)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        tjurina.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from tjurina import no_such_name", {})
    assert not hasattr(tjurina, "cli_main")




# removed on purpose: test references now (tests/reference.py), or aliases
REMOVED = {"binary_form_resultant": "binforms", "discriminant": "binforms", "VERTICAL": "lengths",
           "line_restriction_length": "lengths", "homogeneous_component": "poly",
           "partial_derivative": "poly", "divide": "groebner", "s_polynomial": "groebner",
           "upoly_gcd": "binforms", "local_length_oracle": "lengths",
           "monomials_of_degree": "poly"}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_a_removed_name_is_gone_from_the_package_and_its_module(name):
    import importlib

    assert name not in tjurina.__all__
    for owner in (tjurina, importlib.import_module(f"tjurina.{REMOVED[name]}")):
        with pytest.raises(AttributeError, match=name):
            getattr(owner, name)


def test_cli_reads_no_engine_name_as_its_attribute():
    from tjurina import cli

    assert not hasattr(cli, "_ENGINE_NAMES") and not hasattr(cli, "__getattr__")
    with pytest.raises(AttributeError, match="predicted_gb"):
        cli.predicted_gb  # noqa: B018
