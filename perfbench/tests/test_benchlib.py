"""Tests of the serving benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import benchlib  # noqa: E402


class PercentileChoiceTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(benchlib.choose_tail_quantile(1000, 10), 0.99)
        self.assertEqual(benchlib.samples_beyond(1000, 0.99), 10)
        self.assertEqual(benchlib.choose_tail_quantile(999, 10), 0.98)

    def test_never_above_p99(self):
        self.assertEqual(benchlib.choose_tail_quantile(10 ** 6, 10), 0.99)

    def test_choice_leaves_enough_beyond_and_is_the_highest(self):
        for min_beyond in (10, 25):
            for n in range(min_beyond + 2, 5000, 7):
                q = benchlib.choose_tail_quantile(n, min_beyond)
                self.assertGreaterEqual(benchlib.samples_beyond(n, q), min_beyond, n)
                if q < benchlib.TAIL_MAX:
                    self.assertLess(benchlib.samples_beyond(n, q + 0.01), min_beyond,
                                    (n, q))

    def test_too_few_samples(self):
        self.assertIsNone(benchlib.choose_tail_quantile(10, 10))
        self.assertEqual(benchlib.choose_tail_quantile(320, 25), 0.92)

    def test_beyond_count_matches_nearest_rank(self):
        values = list(range(1, 301))
        q = benchlib.choose_tail_quantile(len(values), 10)
        tail = benchlib.nearest_rank(values, q)
        self.assertEqual(sum(1 for v in values if v > tail),
                         benchlib.samples_beyond(len(values), q))

    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 2, 3]), 2.5)


class ScheduleTest(unittest.TestCase):
    def test_poisson_schedule_repeats_exactly(self):
        a = benchlib.poisson_offsets_ns(
            benchlib.workload_rng("recommend_cold", 7, "arrivals"), 15.0, 500)
        b = benchlib.poisson_offsets_ns(
            benchlib.workload_rng("recommend_cold", 7, "arrivals"), 15.0, 500)
        self.assertEqual(a, b)

    def test_poisson_schedule_differs_by_seed_and_workload(self):
        a = benchlib.poisson_offsets_ns(
            benchlib.workload_rng("recommend_cold", 7, "arrivals"), 15.0, 50)
        b = benchlib.poisson_offsets_ns(
            benchlib.workload_rng("recommend_cold", 8, "arrivals"), 15.0, 50)
        c = benchlib.poisson_offsets_ns(
            benchlib.workload_rng("recommend_hot", 7, "arrivals"), 15.0, 50)
        self.assertNotEqual(a, b)
        self.assertNotEqual(a, c)

    def test_poisson_schedule_has_the_rate(self):
        offsets = benchlib.poisson_offsets_ns(random.Random(1), 200.0, 20000)
        self.assertEqual(offsets, sorted(offsets))
        rate = len(offsets) / (offsets[-1] / 1e9)
        self.assertAlmostEqual(rate, 200.0, delta=6.0)
        gaps = [b - a for a, b in zip([0] + offsets, offsets)]
        # Exponential gaps: the coefficient of variation is 1.
        mean = sum(gaps) / len(gaps)
        sd = (sum((g - mean) ** 2 for g in gaps) / len(gaps)) ** 0.5
        self.assertAlmostEqual(sd / mean, 1.0, delta=0.05)

    def test_zipf_is_skewed_and_seeded(self):
        z = benchlib.Zipf(128, 1.0)
        a, b = random.Random(3), random.Random(3)
        self.assertEqual([z.sample(a) for _ in range(100)],
                         [z.sample(b) for _ in range(100)])
        r = random.Random(5)
        counts = [0] * 128
        for _ in range(20000):
            counts[z.sample(r)] += 1
        self.assertTrue(counts[0] > counts[1] > counts[10] > counts[100])
        self.assertGreater(counts[0], 20000 / 128 * 10)

    def test_checkin_interleave_has_the_share(self):
        pattern = [benchlib.is_checkin(i, 2 / 3) for i in range(9)]
        self.assertEqual(pattern, [False, True, True] * 3)
        self.assertEqual(sum(benchlib.is_checkin(i, 0.25) for i in range(1000)), 250)
        self.assertFalse(any(benchlib.is_checkin(i, 0.0) for i in range(100)))


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "req": 0, "name": name,
            "start": start, "end": end}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        own = benchlib.self_times([span(0, -1, 10, 25)])
        self.assertEqual(own, {0: 15})

    def test_nested_children(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 1, 15, 35),
                 span(3, 0, 50, 60)]
        own = benchlib.self_times(spans)
        # Root loses its direct children (30 + 10), not the grandchild.
        self.assertEqual(own[0], 60)
        self.assertEqual(own[1], 10)
        self.assertEqual(own[2], 20)
        self.assertEqual(own[3], 10)
        self.assertEqual(sum(own.values()), 100)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 50), span(2, 0, 30, 70)]
        self.assertEqual(benchlib.self_times(spans)[0], 40)

    def test_children_outside_parent_are_clipped(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 130), span(2, 0, -20, 5)]
        self.assertEqual(benchlib.self_times(spans)[0], 85)

    def test_covered_handles_touching_intervals(self):
        self.assertEqual(benchlib.covered_ns([(0, 10), (10, 20), (25, 30)], 0, 100), 25)

    def test_layer_stats_groups_by_name(self):
        spans = [span(0, -1, 0, 10, "request"), span(1, 0, 2, 6, "core.topk"),
                 span(2, -1, 20, 40, "request"), span(3, 2, 21, 31, "core.topk")]
        stats = benchlib.layer_stats(spans)
        self.assertEqual(stats["request"], [6, 10])
        self.assertEqual(stats["core.topk"], [4, 10])

    def test_parse_trace(self):
        text = "S\t0\t-1\t3\trequest\t100\t200\nC\tcore.delta.bytes\t1234\n"
        spans, counters = benchlib.parse_trace(text)
        self.assertEqual(spans, [{"id": 0, "parent": -1, "req": 3, "name": "request",
                                  "start": 100, "end": 200}])
        self.assertEqual(counters, {"core.delta.bytes": [1234.0]})


class ResponseParsingTest(unittest.TestCase):
    RECOMMEND = ('{"user": 3, "city": 0, "cell": 255, "k": 2, "cached": false, '
                 '"model_epoch": 1, "model_version": 4, "results": [{"poi": 897, '
                 '"score": 0.60756224393844604}, {"poi": 12, "score": 1}]}')

    def test_recommend_keeps_score_text(self):
        r = benchlib.parse_recommend(self.RECOMMEND)
        self.assertEqual(r["user"], 3)
        self.assertFalse(r["cached"])
        self.assertEqual(r["model_version"], 4)
        self.assertEqual(r["results"], [(897, "0.60756224393844604"), (12, "1")])

    def test_recommend_matches_reference_line(self):
        r = benchlib.parse_recommend(self.RECOMMEND)
        self.assertEqual(r["results"],
                         benchlib.parse_reference_line("897:0.60756224393844604 12:1"))

    def test_recommend_rejects_errors(self):
        with self.assertRaises(ValueError):
            benchlib.parse_recommend('{"error": "unknown user"}')

    def test_checkin(self):
        self.assertEqual(benchlib.parse_checkin('{"accepted": true, "seq": 17}'), 17)
        with self.assertRaises(ValueError):
            benchlib.parse_checkin('{"error": "ingest not enabled"}')

    def test_statz(self):
        body = ('{"requests": 7, "bad_requests": 0, "cache_hits": 2, '
                '"cache_misses": 1, "batches": 4, "batched_requests": 4, '
                '"ingest": {"checkins_accepted": 5, "checkins_rejected": 1, '
                '"deltas_applied": 2}, "rejected_requests": 0, '
                '"allocs": {"recommend": 519, "hot_requests": 2, "hot": 0, "loop": 8}, '
                '"syscalls": {"reads": 13, "writes": 6, "epoll_waits": 47, '
                '"accepts": 7}}')
        s = benchlib.parse_statz(body)
        self.assertEqual(s["cache_hits"], 2)
        self.assertEqual(s["batched_requests"], 4)
        self.assertEqual(s["allocs_recommend"], 519)
        self.assertEqual(s["syscalls"], 73)
        self.assertEqual(s["deltas_applied"], 2)
        self.assertEqual(s["checkins_rejected"], 1)


if __name__ == "__main__":
    unittest.main()
