import pytest

from sweepmap import PathDiagram, connected_diagram, Path, render_ascii, render_svg


class TestAscii:
    def test_single_pair(self):
        text = render_ascii(connected_diagram(Path((1, -1))))
        assert text == "0 | RB | 0\n"

    def test_nine_arrow_diagram(self, nine_arrow_diagram):
        text = render_ascii(nine_arrow_diagram)
        lines = text.splitlines()
        assert len(lines) == 7  # rows 6 down to 0
        counts = [line.rsplit("|", 1)[1].strip() for line in lines]
        assert counts == ["1", "2", "1", "-2", "-1", "-1", "0"]
        # row 0 holds the up segment of arrow 3 and the last down segment of arrow 8
        assert lines[-1] == "0 | ..R....B. | 0"

    def test_level_arrows_are_invisible(self):
        text = render_ascii(PathDiagram((0, 1, -1), (2, 0, 1)))
        assert "R" in text and "B" in text
        assert text.count("R") == 1

    def test_empty(self):
        assert render_ascii(PathDiagram((), ())) == "(empty diagram)\n"

    @pytest.mark.parametrize(
        "diagram,text",
        [
            # rows 0 and 1 hold only cancelling segments (count 0) and the
            # level arrow at height 5 lies outside them: rows 0..1 are drawn
            (PathDiagram((0, 2, -2), (5, 0, 2)), "1 | .RB | 0\n0 | .RB | 0\n"),
            # no segment at all: row 0 alone
            (PathDiagram((0,), (5,)), "0 | . | 0\n"),
        ],
    )
    def test_rows_span_the_segments(self, diagram, text):
        assert render_ascii(diagram) == text

    def test_byte_stable(self, nine_arrow_diagram):
        assert render_ascii(nine_arrow_diagram) == render_ascii(nine_arrow_diagram)


class TestSvg:
    def test_nine_arrow_diagram(self, nine_arrow_diagram):
        svg = render_svg(nine_arrow_diagram)
        assert svg.count('class="arrow"') == 9
        assert svg.count('stroke="red"') == 4
        assert svg.count('stroke="blue"') == 3
        assert svg.count('stroke="purple"') == 2
        counts = [
            line.split(">")[1].split("<")[0]
            for line in svg.splitlines()
            if 'class="rowcount"' in line
        ]
        # rows 0..6 bottom-up
        assert counts == ["0", "-1", "-1", "-2", "1", "2", "1"]

    def test_geometry_reads_like_heights(self):
        svg = render_svg(connected_diagram(Path((2, -2))))
        assert '<g transform="scale(1 -1)">' in svg
        assert 'x1="1" y1="0" x2="2" y2="2"' in svg

    def test_byte_stable(self, nine_arrow_diagram):
        first = render_svg(nine_arrow_diagram)
        assert first == render_svg(nine_arrow_diagram)
        assert first.startswith("<svg ") and first.endswith("</svg>\n")

    def test_empty(self):
        svg = render_svg(PathDiagram((), ()))
        assert svg.count('class="arrow"') == 0
        assert "<svg " in svg
