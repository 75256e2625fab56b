"""Tests for repro.utils.flat."""

import numpy as np
import pytest

from repro.utils.flat import param_specs


class TestParamSpecs:
    def test_offsets_and_sizes(self):
        arrays = [np.zeros((2, 3)), np.zeros(4), np.zeros(())]
        specs = param_specs(arrays)
        assert [s.offset for s in specs] == [0, 6, 10]
        assert [s.size for s in specs] == [6, 4, 1]
        assert specs[0].end == 6

    def test_empty(self):
        assert param_specs([]) == []
