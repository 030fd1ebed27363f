"""Tests for the operation-count convention carried by DetectionResult."""

import numpy as np

from spheredec.detectors import DetectionResult


def test_flops_excludes_comparisons():
    res = DetectionResult(
        x_hat=np.zeros(4), weight=0.0, nodes_visited=5, restarts=0,
        adds=2, mults=3, divs=1, comparisons=10,
    )
    assert res.flops == 6
