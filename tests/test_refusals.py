"""Refusals of malformed input, one table row each: the exception's type
and its exact message, for the library calls and for the CLI (exit 2, the
message on stderr and nothing on stdout)."""

import numpy as np
import pytest

from cehgeom import DomainError, GeometryParams, charts, geodesics, profiles, tensors
from cehgeom.charts import ChartError, ChartPoint
from cehgeom.cli import main

P2, P3 = GeometryParams(2, 1.0), GeometryParams(3, 1.0)

REFUSALS = {
    "chart index out of range": (
        lambda: ChartPoint(i=3, z=1.0, zeta=[0.5]),
        ChartError, "chart index 3 out of range 1..2"),
    "chart point of the wrong dimension": (
        lambda: charts.pullback_metric(ChartPoint(i=1, z=1.0, zeta=[0.5]), P3),
        ChartError, "chart point lives in dimension 2, params have n=3"),
    "transition to an index out of range": (
        lambda: charts.transition(ChartPoint(i=1, z=1.0, zeta=[0.5]), 3),
        ChartError, "chart index 3 out of range 1..2"),
    "velocity shape": (
        lambda: geodesics.GeodesicState([1.0, 0.0], [0.0, 1.0, 0.0]),
        DomainError, "velocity shape must match position shape"),
    "state dimension against params.n": (
        lambda: geodesics.integrate(geodesics.GeodesicState([1.0, 0.0], [0.0, 1.0]), 1.0, P3),
        DomainError, "state has dimension 2, params n=3"),
    "zero-section base dimension": (
        lambda: geodesics.zero_section_geodesic([0.5], [1.0], P3),
        DomainError, "base coordinates have dimension 1, expected n-1=2"),
    "a point that is not a vector": (
        lambda: geodesics.geodesic_rhs([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0], P2),
        DomainError, "point must be a complex vector, got shape (2, 2)"),
    "homothety factor not positive": (
        lambda: tensors.homothety_residual([1.0, 0.0], 0.0, P2),
        DomainError, "homothety factor must be positive, got 0.0"),
    "roots of unity below n = 1": (
        lambda: profiles.roots_of_unity_sum(2.0, 0),
        DomainError, "n must be a positive integer, got 0"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_type_and_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_transition_jacobian_to_its_own_chart_is_the_identity():
    p = ChartPoint(i=2, z=0.3 - 0.1j, zeta=[0.5 + 0.2j, -1.5j])
    jac = charts.transition_jacobian(p, p.i)
    assert jac.dtype == complex
    assert np.array_equal(jac, np.eye(3))


CLI_REFUSALS = {
    "non-finite point": (["eval", "--point=nan+0i,0i"],
                         "error: non-finite complex literal 'nan+0i'"),
    "chart spec of the wrong length": (["eval", "--chart=1:1"],
                                       "error: expected chart spec i:z:zeta_1:...:zeta_1, "
                                       "got '1:1'"),
}


@pytest.mark.parametrize("case", list(CLI_REFUSALS))
def test_cli_refusal_exits_2_with_its_message(case, capsys):
    argv, message = CLI_REFUSALS[case]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


def test_cli_float_option_that_is_not_a_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--a", "abc", "--point=1+0i,0+0i"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: cehgeom eval ")
    assert err.endswith("error: argument --a: invalid float value: 'abc'\n")
