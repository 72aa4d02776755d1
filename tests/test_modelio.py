"""Tests for the JSON model formats and their diagnostics."""

import json

import numpy as np
import pytest

from statgames import discrete as ds
from statgames import gaussian as gs
from statgames.errors import ModelParseError, ShapeError
from statgames.modelio import (
    channel_to_obj,
    load_json,
    parse_channel,
    parse_lens,
    parse_state,
    state_to_obj,
)

KERNEL = {
    "dom": ["x0", "x1"],
    "cod": ["y0", "y1"],
    "rows": [[0.25, 0.75], [0.5, 0.5]],
}

COPAR_KERNEL = {
    "dom": ["x0", "x1"],
    "cod": ["y0", "y1"],
    "copar": ["m0", "m1"],
    "rows": [0.1, 0.2, 0.3, 0.4, 0.25, 0.25, 0.25, 0.25],
}

GAUSS = {"A": [[2.0]], "b": [1.0], "noise": [[0.5]], "copar_dim": 0}


class TestChannels:
    def test_parse_plain_kernel(self):
        ch = parse_channel(KERNEL)
        assert isinstance(ch, ds.CoparKernel)
        assert ch.copar.size == 1
        assert np.allclose(ds.discard_coparam(ch).rows, KERNEL["rows"])

    def test_parse_copar_kernel_flat_rows(self):
        ch = parse_channel(COPAR_KERNEL)
        assert ch.copar.size == 2 and ch.out.size == 2
        assert ch.rows.shape == (2, 4)

    def test_parse_gaussian(self):
        ch = parse_channel(GAUSS)
        assert isinstance(ch, gs.GaussChannel)
        assert ch.A[0, 0] == 2.0

    def test_non_stochastic_row_named(self):
        bad = dict(KERNEL, rows=[[0.25, 0.75], [0.5, 0.4]])
        with pytest.raises(ModelParseError, match="row 1"):
            parse_channel(bad)

    def test_negative_entry_named(self):
        bad = dict(KERNEL, rows=[[-0.25, 1.25], [0.5, 0.5]])
        with pytest.raises(ModelParseError, match="row 0"):
            parse_channel(bad)

    def test_nan_entry_named(self):
        bad = dict(KERNEL, rows=[[0.25, 0.75], [float("nan"), 1.0]])
        with pytest.raises(ModelParseError, match="row 1.*NaN"):
            parse_channel(bad)

    def test_nan_entry_rejected_from_file(self, tmp_path):
        # JSON as Python writes it: a bare NaN literal
        path = tmp_path / "k.json"
        path.write_text(json.dumps(dict(KERNEL, rows=[[float("nan"), 1.0], [0.5, 0.5]])))
        with pytest.raises(ModelParseError, match="row 0"):
            parse_channel(load_json(str(path)))

    def test_wrong_row_count(self):
        bad = dict(KERNEL, rows=[[0.25, 0.75]])
        with pytest.raises(ModelParseError):
            parse_channel(bad)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ModelParseError, match="neither"):
            parse_channel({"rows": [[1.0]]})

    def test_round_trip_discrete(self):
        ch = parse_channel(COPAR_KERNEL)
        again = parse_channel(channel_to_obj(ch))
        assert np.allclose(ch.rows, again.rows)
        assert again.copar.size == ch.copar.size

    def test_round_trip_gaussian(self):
        ch = parse_channel(GAUSS)
        again = parse_channel(channel_to_obj(ch))
        assert np.allclose(ch.A, again.A)
        assert np.allclose(ch.noise, again.noise)


class TestStates:
    def test_parse_discrete(self):
        s = parse_state({"space": ["a", "b"], "mass": [0.3, 0.7]})
        assert isinstance(s, ds.Dist)

    def test_parse_gaussian(self):
        s = parse_state({"mean": [0.0], "cov": [[1.0]]})
        assert isinstance(s, gs.GaussState)

    def test_bad_mass_rejected(self):
        with pytest.raises(ModelParseError, match="sums"):
            parse_state({"space": ["a", "b"], "mass": [0.3, 0.8]})

    def test_nan_mass_rejected(self):
        with pytest.raises(ModelParseError, match="NaN"):
            parse_state({"space": ["a", "b"], "mass": [float("nan"), 1.0]})

    def test_round_trip(self):
        s = parse_state({"space": ["a", "b"], "mass": [0.3, 0.7]})
        again = parse_state(state_to_obj(s))
        assert np.allclose(s.mass, again.mass)


class TestLensBundles:
    def test_exact_bundle(self):
        lens = parse_lens({"fwd": KERNEL, "bwd": "exact"})
        pi = ds.Dist(lens.fwd.dom, [0.5, 0.5])
        back = lens.bwd(pi)
        assert back.copar_side == "right"

    def test_tabulated_backward(self):
        prior = {"space": ["x0", "x1"], "mass": [0.5, 0.5]}
        back = {
            "dom": ["y0", "y1"],
            "cod": ["x0", "x1"],
            "rows": [[0.5, 0.5], [0.25, 0.75]],
        }
        lens = parse_lens({"fwd": KERNEL, "bwd": [{"prior": prior, "channel": back}]})
        got = lens.bwd(ds.Dist(lens.fwd.dom, [0.5, 0.5]))
        assert np.allclose(ds.discard_coparam(got).rows, back["rows"])
        with pytest.raises(ShapeError, match="tabulated"):
            lens.bwd(ds.Dist(lens.fwd.dom, [0.25, 0.75]))

    def test_missing_fwd_rejected(self):
        with pytest.raises(ModelParseError, match="fwd"):
            parse_lens({"bwd": "exact"})


class TestLoadJson:
    def test_syntax_error_has_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"dom": [1, }')
        with pytest.raises(ModelParseError, match="line 1"):
            load_json(str(p))

    def test_missing_file(self):
        with pytest.raises(ModelParseError, match="no such file"):
            load_json("/nonexistent/here.json")

    def test_good_file(self, tmp_path):
        p = tmp_path / "k.json"
        p.write_text(json.dumps(KERNEL))
        assert parse_channel(load_json(str(p))).dom.size == 2
