import pytest

from mcwc import oracle
from mcwc.core import (
    CodeParameters,
    ConstructionError,
    SizeError,
    VerificationReport,
    verify_mcwc,
)
from mcwc.bounds import gv_lower_bound, johnson_recursive
from mcwc.oracle import SearchConfig, enumerate_words, max_cwc, max_mcwc


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_words(CodeParameters((5, 7), (2, 2), 6))) == 10 * 21
        assert len(enumerate_words(CodeParameters((4,), (0,), 2))) == 1

    def test_block_offsets(self):
        words = enumerate_words(CodeParameters((2, 2), (1, 1), 2))
        assert words == [(0, 2), (0, 3), (1, 2), (1, 3)]


class TestKnownValues:
    def test_t_2_3_2_3(self):
        assert max_mcwc(CodeParameters((3, 3), (2, 2), 6)).size == 1

    def test_t_2_3_2_5(self):
        assert max_mcwc(CodeParameters((3, 5), (2, 2), 6)).size == 2

    def test_t_2_5_2_5(self):
        assert max_mcwc(CodeParameters((5, 5), (2, 2), 6)).size == 5

    def test_t_2_5_2_7(self):
        result = max_mcwc(CodeParameters((5, 7), (2, 2), 6))
        assert result.size == 6 and result.complete

    def test_a_5_4_2(self):
        assert max_cwc(5, 4, 2).size == 2

    def test_a_4_2_2(self):
        assert max_cwc(4, 2, 2).size == 6

    def test_a_6_4_3(self):
        # sandwiched by the LP relaxation
        from mcwc.lp import lp_bound

        exact = max_cwc(6, 4, 3).size
        assert exact == 4
        assert exact <= lp_bound(CodeParameters.uniform(1, 6, 3, 4)).value

    def test_distance_two_whole_space(self):
        for n, w in [(5, 2), (6, 3)]:
            from math import comb

            assert max_cwc(n, 2, w).size == comb(n, w)

    def test_infeasible_weight(self):
        result = max_mcwc(CodeParameters((3,), (4,), 2))
        assert result.size == 0 and result.complete

    def test_unreachable_distance(self):
        result = max_mcwc(CodeParameters((6, 6), (1, 1), 10))
        assert result.size == 1 and result.complete


class TestSearchBehavior:
    def test_witness_verifies(self):
        for params in [
            CodeParameters((5, 7), (2, 2), 6),
            CodeParameters.uniform(1, 7, 3, 4),
            CodeParameters.uniform(2, 4, 2, 4),
        ]:
            result = max_mcwc(params)
            assert verify_mcwc(result.witness).valid
            assert len(result.witness) == result.size

    def test_determinism_and_symmetry_agreement(self):
        params = CodeParameters((5, 7), (2, 2), 6)
        a = max_mcwc(params)
        b = max_mcwc(params)
        assert a.witness.support_set() == b.witness.support_set()
        c = max_mcwc(params, SearchConfig(symmetry_reduction=False))
        assert c.size == a.size

    def test_vertex_cap(self):
        with pytest.raises(SizeError):
            max_mcwc(CodeParameters((9, 9), (4, 4), 6), SearchConfig(vertex_cap=100))

    def test_budget_exhaustion_reports_lower_bound(self):
        params = CodeParameters.uniform(8, 2, 1, 6)
        result = max_mcwc(params, SearchConfig(node_budget=2000))
        assert not result.complete
        assert result.size >= 1
        assert verify_mcwc(result.witness).valid

    def test_sandwich_against_bounds(self):
        params = CodeParameters((5, 7), (2, 2), 6)
        result = max_mcwc(params)
        assert gv_lower_bound(CodeParameters.uniform(2, 5, 2, 6)).applicable
        assert result.size <= johnson_recursive(params).value

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(node_budget=0)
        with pytest.raises(ValueError):
            SearchConfig(vertex_cap=0)

    def test_coloring_toggle_agrees(self):
        for params in [
            CodeParameters((5, 5), (2, 2), 6),
            CodeParameters.uniform(1, 7, 3, 4),
        ]:
            fast = max_mcwc(params)
            plain = max_mcwc(params, SearchConfig(greedy_coloring=False))
            assert plain.size == fast.size


def test_invalid_witness_raises_construction_error(monkeypatch):
    monkeypatch.setattr(oracle, "verify_mcwc", lambda code: VerificationReport(False, "forced"))
    with pytest.raises(ConstructionError) as exc:
        max_mcwc(CodeParameters((3, 5), (2, 2), 6))
    assert str(exc.value) == "oracle produced an invalid witness: forced"
