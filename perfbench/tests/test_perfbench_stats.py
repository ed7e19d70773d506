"""Tests of the benchmark's own arithmetic and tracer.

Run from the root of the repository:

    python -m pytest perfbench/tests -q
"""

import math
import os
import sys
import types
from collections import Counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

import run  # noqa: E402
import stats  # noqa: E402
from layers import layer_metrics  # noqa: E402
from oracle import KNOWN_DEFECTS, unexpected  # noqa: E402
from spans import SpanIndex, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class TestSelfTime:
    def test_no_children(self):
        assert stats.self_time(1.0, 4.0, []) == pytest.approx(3.0)

    def test_disjoint_children_subtract(self):
        assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)

    def test_overlapping_children_count_once(self):
        # (1, 4) and (3, 6) cover 1..6: five seconds, not six
        assert stats.self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        assert stats.self_time(2.0, 5.0, [(0.0, 3.0), (4.5, 9.0)]) == pytest.approx(1.5)

    def test_fully_covered_parent_has_zero_self_time(self):
        assert stats.self_time(0.0, 2.0, [(0.0, 1.0), (1.0, 2.0)]) == pytest.approx(0.0)

    def test_span_index_self_total_uses_direct_children(self):
        spans = [
            ("cli.main", 0.0, 10.0, -1, 0),
            ("sampling.sample_paths", 1.0, 7.0, 0, 0),
            ("sampling.build_gram", 1.5, 3.0, 1, 0),  # grandchild of cli.main
            ("dsl.print_kernel", 3.0, 3.5, 1, 0),
            ("sampling.cholesky_with_jitter", 4.0, 6.0, 1, 0),
        ]
        ix = SpanIndex(spans)
        assert ix.self_total("cli.main") == pytest.approx(4.0)
        draw = ix.self_total(
            "sampling.sample_paths",
            exclude_children=("sampling.build_gram", "sampling.cholesky_with_jitter"),
        )
        assert draw == pytest.approx(6.0 - 1.5 - 2.0)

    def test_span_index_total_counts_recursion_once(self):
        spans = [
            ("dsl.print_kernel", 0.0, 4.0, -1, 0),
            ("dsl.print_kernel", 1.0, 2.0, 0, 0),
            ("dsl.print_kernel", 5.0, 6.0, -1, 1),
        ]
        assert SpanIndex(spans).total("dsl.print_kernel") == pytest.approx(5.0)


class TestTailPercentile:
    def test_highest_percentile_with_ten_beyond(self):
        latencies = list(range(1, 107))  # 106 ops
        p, value = stats.tail_percentile(latencies)
        assert p == 90
        assert sum(1 for x in latencies if x > value) >= 10
        # p91's nearest-rank value is the 97th, leaving only nine beyond
        assert 106 - math.ceil(91 * 106 / 100) == 9

    def test_exactly_twenty_ops_gives_the_median(self):
        assert stats.tail_percentile(list(range(20))) == (50, 9)

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 19])
    def test_too_few_ops_has_no_tail(self, n):
        assert stats.tail_percentile([0.1] * n) is None

    def test_order_of_input_does_not_matter(self):
        xs = [float(i) for i in range(200)]
        assert stats.tail_percentile(xs[::-1]) == stats.tail_percentile(xs)


class TestErrorRate:
    def test_rate_against_its_base(self):
        assert stats.error_rate(12, 53) == pytest.approx(12 / 53)

    def test_zero_failures(self):
        assert stats.error_rate(0, 9) == 0.0

    def test_empty_base_is_refused(self):
        with pytest.raises(ValueError):
            stats.error_rate(0, 0)

    @pytest.mark.parametrize("failed", [-1, 10])
    def test_failed_outside_base_is_refused(self, failed):
        with pytest.raises(ValueError):
            stats.error_rate(failed, 9)


class TestUnexpected:
    def test_known_defect_failing_as_recorded_is_expected(self):
        failures = [("exit", "exit 1"), ("verdict", "fail"), ("order", "detected 2.1 vs 1.5")]
        assert unexpected("report matern(nu=1.5,lengthscale=0.1)", failures, 1) == []
        assert unexpected("verify matern(nu=3,lengthscale=1)", [("exit", "exit 3: error")], 3) == []

    def test_known_defect_with_another_exit_code_is_unexpected(self):
        # used to fail its verdict with exit 1; now stops before sampling
        name = "report matern(nu=1.5,lengthscale=0.1)"
        assert unexpected(name, [("exit", "exit 3")], 3) == [("exit", "exit 3")]

    def test_known_defect_that_raises_is_unexpected(self):
        failures = [("exit", "raised ValueError: x")]
        assert unexpected("verify matern(nu=3,lengthscale=1)", failures, "raised ValueError") == failures

    def test_known_defect_with_a_new_kind_is_unexpected(self):
        failures = [("roundtrip", "differs"), ("verdict", "fail")]
        assert unexpected("estimate --samples se()", failures, 0) == [("verdict", "fail")]

    def test_statistical_failures_are_not_unexpected(self):
        assert unexpected("report wiener()", [("estimate", "s_hat=0.62 vs 0.5 +- 0.1")], 0) == []

    def test_seed_independent_failures_are_unexpected(self):
        assert unexpected("verify wiener()", [("verdict", "fail")], 0) == [("verdict", "fail")]
        assert unexpected("verify wiener()", [("exit", "exit 1")], 1) == [("exit", "exit 1")]

    def test_every_known_defect_names_an_op_of_a_workload(self):
        names = {op.name for make in WORKLOADS.values() for unit in make(42) for op in unit}
        assert set(KNOWN_DEFECTS) <= names


class TestMetricNames:
    def test_benchmark_json_lists_what_the_layers_compute(self):
        computed = set(layer_metrics([], Counter(), 1)) | {"trace.overhead_s"}
        assert computed == set(run.metric_units("per_layer"))

    def test_benchmark_json_lists_what_the_end_to_end_run_computes(self):
        records = [{"name": "op", "pass": "untraced-0", "latency_s": 0.5, "failures": []}]
        values, _notes = run.end_to_end(records, [0.3], 100.0)
        assert set(values) == set(run.metric_units("end_to_end"))


class TestTracer:
    def _modules(self):
        lib = types.ModuleType("pkg.lib")

        def leaf(x):
            return x + 1

        def outer(x):
            return lib.leaf(x) * 2

        def _helper(x):
            return x

        leaf.__module__ = outer.__module__ = _helper.__module__ = "pkg.lib"
        lib.leaf, lib.outer, lib._helper = leaf, outer, _helper
        user = types.ModuleType("pkg.user")
        user.leaf = leaf  # an imported name
        return lib, user

    def test_imported_names_are_patched_and_restored(self):
        lib, user = self._modules()
        original, helper = lib.leaf, lib._helper
        seen = []
        tr = Tracer()
        tr.install([lib], {"lib.leaf": lambda t, a, k, r: seen.append(r)}, extra_namespaces=[user])
        tr.op = 7
        assert lib.outer(1) == 4
        assert user.leaf(1) == 2
        assert lib._helper is helper  # private functions are not wrapped
        tr.uninstall()
        assert lib.leaf is original and user.leaf is original
        assert [s[0] for s in tr.spans] == ["lib.outer", "lib.leaf", "lib.leaf"]
        assert tr.spans[1][3] == 0  # parent of the nested call
        assert tr.spans[2][3] == -1
        assert all(s[4] == 7 for s in tr.spans)
        assert seen == [2, 2]

    def test_exceptions_close_the_span_and_count(self):
        lib = types.ModuleType("pkg.bad")

        def boom():
            raise ValueError("x")

        boom.__module__ = "pkg.bad"
        lib.boom = boom
        tr = Tracer()
        tr.install([lib])
        with pytest.raises(ValueError):
            lib.boom()
        tr.uninstall()
        assert tr.spans[0][0] == "bad.boom"
        assert tr.counters["bad.boom.raised"] == 1

    def test_hooks_for_missing_functions_are_refused(self):
        lib, _user = self._modules()
        with pytest.raises(KeyError):
            Tracer().install([lib], {"lib.nope": lambda *a: None})
