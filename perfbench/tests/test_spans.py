"""Self-time arithmetic on hand-built spans (no cgaweyl import needed)."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import self_times  # noqa: E402


def run(spans):
    """spans: list of (start, end, parent index or -1)."""
    starts, ends, parents = zip(*spans)
    return self_times(starts, ends, parents)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(run([(1.0, 4.0, -1)]), [3.0])

    def test_disjoint_children(self):
        out = run([(0.0, 10.0, -1), (1.0, 3.0, 0), (5.0, 6.0, 0)])
        self.assertEqual(out, [7.0, 2.0, 1.0])

    def test_overlapping_children_count_once(self):
        out = run([(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (3.5, 5.0, 0)])
        self.assertAlmostEqual(out[0], 5.0)

    def test_children_at_the_parents_boundaries(self):
        out = run([(0.0, 10.0, -1), (0.0, 2.0, 0), (9.0, 10.0, 0)])
        self.assertEqual(out[0], 7.0)

    def test_child_sticking_out_is_clipped(self):
        out = run([(2.0, 10.0, -1), (1.0, 3.0, 0), (9.0, 12.0, 0)])
        self.assertEqual(out[0], 6.0)

    def test_zero_length_spans(self):
        out = run([(0.0, 4.0, -1), (2.0, 2.0, 0), (5.0, 5.0, -1), (5.0, 5.0, 2)])
        self.assertEqual(out, [4.0, 0.0, 0.0, 0.0])

    def test_grandchildren_subtract_only_from_their_parent(self):
        out = run([(0.0, 10.0, -1), (2.0, 8.0, 0), (3.0, 5.0, 1)])
        self.assertEqual(out, [4.0, 4.0, 2.0])

    def test_self_times_sum_to_the_root(self):
        spans = [(0.0, 20.0, -1), (1.0, 9.0, 0), (2.0, 3.0, 1), (3.0, 7.0, 1),
                 (10.0, 19.0, 0), (11.0, 11.0, 4)]
        self.assertAlmostEqual(sum(run(spans)), 20.0)


if __name__ == "__main__":
    unittest.main()
