"""One scalar rule, owned by ``numerics``: a Python or NumPy scalar or a 0-d
array in gives a Python float out, and an array of one or more dimensions in
gives an array of the input's shape. Callers such as ``covtest`` inherit the
rule. Its one test, ``numerics._is_scalar``, is the only call of ``np.ndim``
or ``np.isscalar`` in the package, which is checked statically as
tests/test_zscore.py checks the z-score.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from hicrit.covtest import pairwise_pvalue, rowmax_cdf, rowmax_pvalue
from hicrit.numerics import (clamp_pvalues, std_normal_cdf, std_normal_quantile, std_normal_sf,
                             student_t_cdf, student_t_sf)

SRC = Path(__file__).resolve().parent.parent / "src" / "hicrit"

FUNCTIONS = {
    "pairwise_pvalue.two": lambda x: pairwise_pvalue(x, 10),
    "pairwise_pvalue.upper": lambda x: pairwise_pvalue(x, 10, "upper"),
    "rowmax_cdf": lambda x: rowmax_cdf(x, 10, 5),
    "rowmax_pvalue": lambda x: rowmax_pvalue(x, 10, 5),
    "std_normal_quantile": std_normal_quantile,
    "clamp_pvalues": clamp_pvalues,
    "std_normal_cdf": std_normal_cdf,
    "std_normal_sf": std_normal_sf,
    "student_t_cdf": lambda x: student_t_cdf(x, 5),
    "student_t_sf": lambda x: student_t_sf(x, 5),
}


@pytest.mark.parametrize("name", FUNCTIONS)
@pytest.mark.parametrize("x", [0.3, 1, np.float64(0.3), np.float32(0.3), np.int64(1),
                               np.array(0.3)],
                         ids=["float", "int", "float64", "float32", "int64", "0d"])
def test_a_scalar_gives_a_python_float(name, x):
    if name == "std_normal_quantile" and x == 1:
        x = 0.75  # the quantile's domain is (0, 1)
    out = FUNCTIONS[name](x)
    assert type(out) is float
    np.testing.assert_array_equal(out, FUNCTIONS[name](np.array([x]))[0])


@pytest.mark.parametrize("name", FUNCTIONS)
@pytest.mark.parametrize("shape", [(4,), (2, 3)], ids=["1d", "2d"])
def test_an_array_gives_an_array_of_its_shape(name, shape):
    x = np.linspace(0.1, 0.9, int(np.prod(shape))).reshape(shape)
    out = FUNCTIONS[name](x)
    assert type(out) is np.ndarray and out.shape == shape and out.dtype == np.float64
    out_list = FUNCTIONS[name](x.tolist())
    assert type(out_list) is np.ndarray and out_list.shape == shape


def _scalar_test_lines(tree):
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("isscalar", "ndim")
            and isinstance(node.value, ast.Name) and node.value.id == "np"}


def test_the_scalar_test_is_made_only_in_numerics():
    sites = {(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in _scalar_test_lines(ast.parse(path.read_text(), filename=str(path)))}
    assert len(sites) == 1 and {name for name, _ in sites} == {"numerics.py"}, sorted(sites)
