"""Top-level package API."""

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "2.3.1"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_policy_names(self):
        names = repro.policy_names()
        assert "baseline" in names
        assert "cmm-a" in names
        assert "ppm-group" in names  # related-work baseline
        assert len(names) == 9

    def test_make_policy(self):
        assert repro.make_policy("cmm-c").name == "cmm-c"

    def test_default_params_match_paper(self):
        p = repro.default_params()
        assert p.llc.size_bytes == 20 * 1024 * 1024

    @pytest.mark.slow
    def test_quick_run(self):
        ev = repro.quick_run("pref_unfri", mechanism="pref-cp")
        assert "pref-cp" in ev.metrics
        assert ev.metrics["pref-cp"]["hs"] > 0
