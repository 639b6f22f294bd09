"""The shared network core: A^T w f(A x + s u) = 0 for nodal and loop bases."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_connected_circuit

import alphaport
from alphaport import Characteristic, build_canonical
from alphaport.mesh import _loop_network
from alphaport.solver import _nodal_network

# smooth and strictly monotone, so central differences are accurate
LAW = Characteristic(((1.0, 1.0), (0.5, 1.5), (0.7, 3.0)))
LINEAR = Characteristic(((1.0, 1.0),))
DRIVE = 1.3


def fig_a1_nodal():
    return _nodal_network(build_canonical("fig_a1"))[0]


def random_nodal():
    # seed 0: 8 branches with multiplicities 1-3, 5 of them live, 3 unknowns
    return _nodal_network(random_connected_circuit(random.Random(0)))[0]


def fig_b1_loops():
    c = build_canonical("fig_b1")
    return _loop_network(c, c.meshes)[0]


NETWORKS = pytest.mark.parametrize("build", [fig_a1_nodal, random_nodal, fig_b1_loops],
                                   ids=["fig_a1", "random", "fig_b1"])


def probe_point(net):
    # the linear start, moved off any symmetric point
    rng = np.random.default_rng(7)
    return net.linear_start(DRIVE) + 0.05 * rng.standard_normal(net.n)


def central_difference(fn, x, h=1e-6):
    columns = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        columns.append((np.asarray(fn(x + step)) - np.asarray(fn(x - step))) / (2.0 * h))
    return np.array(columns).T


@NETWORKS
def test_residual_is_gradient_of_merit(build):
    net = build()
    assert net.n > 0
    residual, _, objective, _ = net.equations(LAW, DRIVE)
    x = probe_point(net)
    numeric = central_difference(objective, x)
    np.testing.assert_allclose(residual(x), numeric, rtol=1e-6, atol=1e-8)


@NETWORKS
def test_jacobian_is_symmetric_derivative_of_residual(build):
    net = build()
    residual, jacobian, _, _ = net.equations(LAW, DRIVE)
    x = probe_point(net)
    J = jacobian(x)
    np.testing.assert_array_equal(J, J.T)
    np.testing.assert_allclose(J, central_difference(residual, x), rtol=1e-6, atol=1e-8)


@NETWORKS
def test_linear_start_solves_linear_system(build):
    net = build()
    residual = net.equations(LINEAR, DRIVE)[0]
    x = net.linear_start(DRIVE)
    assert np.max(np.abs(residual(x))) <= 1e-14 * DRIVE * net.w.sum()


def test_import_loads_no_scipy():
    src = str(Path(alphaport.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, alphaport; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
