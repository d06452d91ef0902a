"""Tests for spatial file parsing, geodesic distance, and CSV output."""

import csv
import io
import math
import random
import re

import pytest

from pftopt.models import InputError
from pftopt.spatial import (
    EARTH_RADIUS_MILES,
    DistanceCsvError,
    GalParseError,
    GeoPoint,
    geodesic_miles,
    parse_distance_matrix,
    parse_gal,
    parse_network,
    render_gal,
    weights_to_pairs,
    write_assignment_csv,
)

DEMO = "0 3 demo id\nA 1\nB\nB 2\nA C\nC 1\nB\n"


class TestParseGal:
    def test_demo_file(self):
        w = parse_gal(DEMO)
        assert w.header == ("0", "3", "demo", "id")
        assert dict(w.neighbors) == {"A": ["B"], "B": ["A", "C"], "C": ["B"]}

    def test_neighbor_count_mismatch(self):
        bad = "0 1 demo id\nA 2\nB\n"
        with pytest.raises(GalParseError) as err:
            parse_gal(bad)
        assert err.value.line == 3

    def test_truncated_file(self):
        with pytest.raises(GalParseError):
            parse_gal("0 2 demo id\nA 1\nB\n")

    def test_record_beyond_declared_count(self):
        with pytest.raises(GalParseError, match="record beyond the 2 declared areas") as err:
            parse_gal("0 2 x id\n1 1\n2\n2 1\n1\n3 1\n1\n")
        assert err.value.line == 6

    def test_non_numeric_count(self):
        with pytest.raises(GalParseError):
            parse_gal("0 x demo id\n")

    @pytest.mark.parametrize(
        "text, message, line",
        [("0 -3 x y\n", "area count -3 is negative", 1),
         ("0 1\n1 -1\n", "neighbor count -1 is negative", 2)],
        ids=["areas", "neighbors"],
    )
    def test_negative_count_names_its_line(self, text, message, line):
        with pytest.raises(GalParseError, match=message) as err:
            parse_gal(text)
        assert err.value.line == line

    def test_empty_file(self):
        with pytest.raises(GalParseError):
            parse_gal("")

    def test_unknown_neighbor_warns(self):
        with pytest.warns(UserWarning):
            parse_gal("0 1 demo id\nA 1\nZ\n")

    def test_render_round_trip(self, fixtures):
        for name in ("demo.gal", "neighborhoods.gal"):
            w = parse_gal((fixtures / name).read_text())
            assert parse_gal(render_gal(w)) == w

    def test_table9_has_21_pairs(self, fixtures):
        w = parse_gal((fixtures / "neighborhoods.gal").read_text())
        pairs = weights_to_pairs(w).pairs
        assert len(pairs) == 21


class TestWeightsToPairs:
    def test_symmetric_mentions_dedup(self):
        pairs = weights_to_pairs(parse_gal(DEMO)).pairs
        assert pairs == frozenset({frozenset({"A", "B"}), frozenset({"B", "C"})})

    def test_asymmetric_mention_warns_but_yields_pair(self):
        text = "0 2 demo id\nA 1\nB\nB 0\n\n"
        with pytest.warns(UserWarning):
            pairs = weights_to_pairs(parse_gal(text)).pairs
        assert pairs == frozenset({frozenset({"A", "B"})})

    def test_no_self_loops(self, fixtures):
        w = parse_gal((fixtures / "neighborhoods.gal").read_text())
        for pair in weights_to_pairs(w).pairs:
            assert len(pair) == 2


class TestDistanceMatrix:
    def test_complete_2x2(self):
        text = "InputID,TargetID,Distance\n1,1,0\n1,2,5\n2,1,5\n2,2,0\n"
        d = parse_distance_matrix(text)
        assert d.from_ids == ("1", "2")
        assert d.to_ids == ("1", "2")
        assert d.d.tolist() == [[0.0, 5.0], [5.0, 0.0]]

    def test_ids_keep_first_appearance_order(self):
        text = "a,b,dist\n1,2,7\n2,1,7\n1,1,0\n2,2,0\n"
        d = parse_distance_matrix(text)
        assert d.to_ids == ("2", "1")  # first-appearance order
        assert d.d.tolist() == [[7.0, 0.0], [0.0, 7.0]]

    def test_short_row_names_its_line(self):
        with pytest.raises(DistanceCsvError, match="^line 3: missing column$"):
            parse_distance_matrix("f,t,d\n1,1,0\n1,2\n")

    def test_duplicate_pair_rejected(self):
        text = "f,t,d\n1,2,3\n1,2,4\n"
        with pytest.raises(DistanceCsvError):
            parse_distance_matrix(text)

    def test_missing_pair_rejected(self):
        text = "f,t,d\n1,1,0\n1,2,5\n2,1,5\n"
        with pytest.raises(DistanceCsvError):
            parse_distance_matrix(text)

    def test_negative_distance_rejected(self):
        text = "f,t,d\n1,1,-2\n"
        with pytest.raises((DistanceCsvError, InputError)):
            parse_distance_matrix(text)

    def test_block_storage_order(self):
        # M blocks of the from-ids, each block one target long.
        rows = ["f,t,d"]
        for j in (10, 20, 30):
            for i in ("a", "b"):
                rows.append(f"{i},{j},{i == 'b' and j or j + 1}")
        d = parse_distance_matrix("\n".join(rows) + "\n")
        assert d.from_ids == ("a", "b")
        assert d.to_ids == ("10", "20", "30")


    @pytest.mark.parametrize(
        "cell, message",
        [
            ("abc", "line 3: distance 'abc' is not numeric"),
            ("nan", "line 3: distance 'nan' must be finite and non-negative"),
            ("inf", "line 3: distance 'inf' must be finite and non-negative"),
            ("-2", "line 3: distance '-2' must be finite and non-negative"),
        ],
    )
    def test_bad_distance_cell_names_its_line(self, cell, message):
        text = f"f,t,d\n1,1,0\n1,2,{cell}\n2,1,5\n2,2,0\n"
        with pytest.raises(DistanceCsvError, match=f"^{message}$"):
            parse_distance_matrix(text)

    @pytest.mark.parametrize(
        "row, message",
        [(",2,1", "line 3: from id is blank"), ("1, ,1", "line 3: to id is blank")],
    )
    def test_blank_id_names_its_line(self, row, message):
        with pytest.raises(DistanceCsvError, match=f"^{message}$"):
            parse_distance_matrix(f"f,t,d\n1,1,0\n{row}\n")

    def test_first_missing_pair_in_row_major_order(self):
        text = "f,t,d\n1,1,0\n2,3,1\n2,1,5\n"  # (1, 3), (2, 2) are missing
        with pytest.raises(DistanceCsvError, match=r"^missing \(from, to\) pair \(1, 3\)$"):
            parse_distance_matrix(text)

    def test_duplicate_pair_names_its_line(self):
        with pytest.raises(DistanceCsvError, match="^line 4: duplicate"):
            parse_distance_matrix("f,t,d\n1,2,3\n\n1,2,4\n")

    @pytest.mark.parametrize("text", ["", "f,t,d\n", "f,t,d\n\n , ,\n"])
    def test_no_data_rejected(self, text):
        with pytest.raises(DistanceCsvError):
            parse_distance_matrix(text)


class TestParseNetwork:
    def test_road_fixture(self, fixtures):
        net = parse_network((fixtures / "intercity_road.net.csv").read_text())
        assert net.node_ids == ("1", "2", "3", "4", "5", "6", "7")
        assert net.arcs[0] == ("1", "2", 688.0, math.inf)
        assert len(net.arcs) == 12

    def test_ids_capacities_and_blank_rows(self):
        text = "tail,head,weight,capacity\nb, 7 ,2,inf\n\n7,a,0,3\na,b,1\n"
        net = parse_network(text)
        assert net.node_ids == ("b", "7", "a")
        assert net.arcs == (
            ("b", "7", 2.0, math.inf), ("7", "a", 0.0, 3.0), ("a", "b", 1.0, math.inf)
        )

    def test_ids_are_the_text_as_written(self):
        """No id is read as a number, so none merge and none compare."""
        text = "tail,head,weight\n01,z,1\n1,z,1\n+1,z,1\n1_0,z,1\n10,z,1\n"
        assert parse_network(text).node_ids == ("01", "z", "1", "+1", "1_0", "10")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,2,abc", "line 3: weight 'abc' is not numeric"),
            ("1,2", "line 3: rows need tail,head,weight[,capacity]"),
            ("1,2,nan", "line 3: weight 'nan' must be finite and non-negative"),
            ("1,2,inf", "line 3: weight 'inf' must be finite and non-negative"),
            ("1,2,-1", "line 3: weight '-1' must be finite and non-negative"),
            ("1,2,1,-1", "line 3: capacity '-1' must be non-negative"),
            ("1,2,1,nan", "line 3: capacity 'nan' must be non-negative"),
            ("1,2,1,big", "line 3: capacity 'big' is not numeric"),
            (",2,5", "line 3: tail id is blank"),
            ("1,  ,5", "line 3: head id is blank"),
        ],
    )
    def test_bad_row_names_its_line(self, row, message):
        with pytest.raises(DistanceCsvError, match=f"^{re.escape(message)}$"):
            parse_network(f"tail,head,weight,capacity\n2,3,1,\n{row}\n")


class TestGeodesic:
    def test_identical_points(self):
        p = GeoPoint(id="x", lat=38.6, lon=-90.2)
        assert geodesic_miles(p, p) == 0.0

    def test_antipodal_half_circumference(self):
        a = GeoPoint(id="a", lat=0.0, lon=0.0)
        b = GeoPoint(id="b", lat=0.0, lon=180.0)
        assert geodesic_miles(a, b) == pytest.approx(math.pi * EARTH_RADIUS_MILES)

    def test_symmetry(self):
        a = GeoPoint(id="a", lat=34.05, lon=-118.24)
        b = GeoPoint(id="b", lat=38.63, lon=-90.20)
        assert geodesic_miles(a, b) == geodesic_miles(b, a)

    def test_la_to_st_louis_against_independent_formula(self):
        # Oracle: spherical law of cosines, written independently here.
        a = GeoPoint(id="LA", lat=34.0522, lon=-118.2437)
        b = GeoPoint(id="STL", lat=38.6270, lon=-90.1994)
        la1, lo1, la2, lo2 = map(
            math.radians, (a.lat, a.lon, b.lat, b.lon)
        )
        oracle = EARTH_RADIUS_MILES * math.acos(
            math.sin(la1) * math.sin(la2)
            + math.cos(la1) * math.cos(la2) * math.cos(lo2 - lo1)
        )
        assert geodesic_miles(a, b) == pytest.approx(oracle, rel=0.01)

    def test_triangle_inequality(self):
        rng = random.Random(12321)
        for _ in range(50):
            pts = [
                GeoPoint(
                    id=i, lat=rng.uniform(-89, 89), lon=rng.uniform(-179, 179)
                )
                for i in range(3)
            ]
            ab = geodesic_miles(pts[0], pts[1])
            bc = geodesic_miles(pts[1], pts[2])
            ac = geodesic_miles(pts[0], pts[2])
            assert ac <= ab + bc + 1e-9 * max(1.0, ac)

    def test_latitude_range_checked(self):
        with pytest.raises(InputError):
            GeoPoint(id="bad", lat=91.0, lon=0.0)


class TestAssignmentCsv:
    def test_single_row(self):
        text = write_assignment_csv({48001: 2}, "County_FP", "Color")
        assert text == "County_FP,Color\n48001,2\n"

    def test_empty_map_is_header_only(self):
        assert write_assignment_csv({}, "id", "Color") == "id,Color\n"

    def test_round_trip_of_coloring(self, fixtures):
        from pftopt.models import min_colors

        adj = weights_to_pairs(parse_gal((fixtures / "neighborhoods.gal").read_text()))
        result = min_colors(adj, 11)
        text = write_assignment_csv(result.assignment, "id", "Color")
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 12
        parsed = {row[0]: int(row[1]) for row in rows[1:]}
        assert parsed == {str(k): v for k, v in result.assignment.items()}
