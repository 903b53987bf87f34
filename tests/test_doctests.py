import doctest

from grhecke import center, coxeter, hecke, polyring, universal


def test_coxeter_doctests():
    failed, attempted = doctest.testmod(coxeter)
    assert attempted and not failed


def test_polyring_doctests():
    failed, attempted = doctest.testmod(polyring)
    assert attempted and not failed


def test_hecke_doctests():
    failed, attempted = doctest.testmod(hecke)
    assert attempted and not failed


def test_center_doctests():
    failed, attempted = doctest.testmod(center)
    assert attempted and not failed


def test_universal_doctests():
    failed, attempted = doctest.testmod(universal)
    assert attempted and not failed
