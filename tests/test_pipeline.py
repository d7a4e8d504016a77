"""Library entry point: theta resolution on the run() path."""

from fractions import Fraction

import pytest

from steinerenum import GraphError, RunConfig, parse_stp, resolve_theta, run

# a two-edge path 1-2-3 with decimal weights; cost scale 100
DECIMAL_PATH_STP = """\
SECTION Graph
Nodes 3
Edges 2
E 1 2 0.14
E 2 3 0.15
END
SECTION Terminals
Terminals 2
T 1
T 3
END
EOF
"""


class TestResolveTheta:
    @pytest.mark.parametrize("theta", [0.29, Fraction("0.29")])
    def test_float_theta_is_its_decimal(self, theta):
        # 0.29 * 100 is 28.999... in binary floating point
        g = parse_stp(DECIMAL_PATH_STP)
        res = run(g, RunConfig(theta=theta, use_seeds=False, use_simplify=False))
        assert res.theta == 29
        assert [(t.cost, t.sorted_edges()) for t in res.trees] == [(29, (0, 1))]

    def test_negative_theta_rejected(self):
        g = parse_stp(DECIMAL_PATH_STP)
        with pytest.raises(GraphError):
            resolve_theta(RunConfig(theta=-0.001), g, None)
