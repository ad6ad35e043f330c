"""Tests for XY routing."""

import pytest
from hypothesis import given, strategies as st

from tests.noc.reference import Port, Router, xy_route


positions = st.tuples(st.integers(0, 7), st.integers(0, 7))


class TestXyRoute:
    def test_same_position(self):
        assert xy_route((1, 1), (1, 1)) == [(1, 1)]

    def test_horizontal_first(self):
        route = xy_route((0, 0), (2, 2))
        assert route == [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]

    def test_westward(self):
        assert xy_route((0, 2), (0, 0)) == [(0, 2), (0, 1), (0, 0)]

    @given(positions, positions)
    def test_route_length_is_manhattan(self, src, dst):
        route = xy_route(src, dst)
        manhattan = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
        assert len(route) == manhattan + 1

    @given(positions, positions)
    def test_route_endpoints(self, src, dst):
        route = xy_route(src, dst)
        assert route[0] == src and route[-1] == dst

    @given(positions, positions)
    def test_route_steps_are_unit_hops(self, src, dst):
        route = xy_route(src, dst)
        for a, b in zip(route, route[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    @given(positions, positions)
    def test_route_never_revisits(self, src, dst):
        route = xy_route(src, dst)
        assert len(set(route)) == len(route)

    @given(positions, positions)
    def test_dimension_order(self, src, dst):
        """Once the row changes, the column never changes again."""
        route = xy_route(src, dst)
        row_started = False
        for a, b in zip(route, route[1:]):
            if a[0] != b[0]:
                row_started = True
            if row_started:
                assert a[1] == b[1]


class TestRouter:
    def test_local_port(self):
        router = Router(row=1, col=1, plane=0)
        assert router.output_port((1, 1)) is Port.LOCAL

    def test_xy_priority_column_first(self):
        router = Router(row=0, col=0, plane=0)
        assert router.output_port((3, 3)) is Port.EAST

    def test_row_movement_after_column_aligned(self):
        router = Router(row=0, col=3, plane=0)
        assert router.output_port((3, 3)) is Port.SOUTH
        assert Router(row=5, col=3, plane=0).output_port((3, 3)) is Port.NORTH

    def test_next_position_follows_port(self):
        router = Router(row=2, col=2, plane=0)
        assert router.next_position((2, 5)) == (2, 3)
        assert router.next_position((0, 2)) == (1, 2)

    def test_next_position_at_destination_raises(self):
        from repro.errors import NocError

        with pytest.raises(NocError):
            Router(row=0, col=0, plane=0).next_position((0, 0))
