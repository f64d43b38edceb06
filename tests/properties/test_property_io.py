"""Property-based tests for persistence: the points CSV round trip."""

from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.io import load_points, save_points

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
point_lists = st.lists(st.builds(Point, coords, coords), max_size=40)


class TestIOProperties:
    @settings(max_examples=40)
    @given(point_lists)
    def test_points_roundtrip_exactly(self, pts):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "pts.csv"
            save_points(pts, path)
            assert load_points(path) == pts

    @settings(max_examples=20)
    @given(point_lists)
    def test_csv_line_count(self, pts):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "pts.csv"
            save_points(pts, path)
            lines = path.read_text().strip().splitlines()
            assert len(lines) == len(pts) + 1  # header
