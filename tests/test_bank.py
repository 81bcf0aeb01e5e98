"""JSONL target bank: serialization layout, round trips, error reporting."""

import json

import numpy as np
import pytest

from autobox3d.bank import NovelObjectTarget, Provenance, read_bank, write_bank
from autobox3d.costfn import CostBreakdown
from autobox3d.errors import ValidationError
from autobox3d.filters import AlignmentVerdict
from autobox3d.geom import BoxParams


def make_target(frame="0000", proposal=0, embedding=None, fit=True, class_id="car"):
    return NovelObjectTarget(
        box=BoxParams(10.0, 2.0, -1.0, 4.5, 1.8, 1.6, 0.3),
        class_id=class_id,
        cost=CostBreakdown(-0.9, 0.1, -3.0, -2.4, -9.8),
        fit_for_alignment=fit,
        provenance=Provenance(frame, "cam0", proposal),
        embedding=embedding,
        verdict=AlignmentVerdict(True, True, fit),
    )


class TestSerialization:
    def test_key_order_fixed(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        write_bank([make_target(embedding=[0.5, -0.5])], path)
        line = path.read_text().splitlines()[0]
        obj = json.loads(line)
        assert list(obj) == [
            "frame", "box", "class", "cost", "fit_for_alignment",
            "embedding", "provenance",
        ]
        assert list(obj["box"]) == ["x", "y", "z", "l", "w", "h", "ry"]
        assert list(obj["cost"]) == ["density", "lshape", "surface", "iou2d", "total"]
        assert list(obj["provenance"]) == ["frame", "camera", "proposal"]

    def test_optional_fields_omitted(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        write_bank([make_target()], path)
        obj = json.loads(path.read_text())
        assert "embedding" not in obj
        assert "verdict" not in obj

    def test_frames_written_sorted(self, tmp_path):
        # A stable sort on the frame: one frame's targets keep their list order.
        targets = [
            make_target("0002"),
            make_target("0000", proposal=3),
            make_target("0001"),
            make_target("0000", proposal=1),
        ]
        path = tmp_path / "bank.jsonl"
        write_bank(targets, path)
        objs = [json.loads(l) for l in path.read_text().splitlines()]
        assert [(o["frame"], o["provenance"]["proposal"]) for o in objs] == [
            ("0000", 3), ("0000", 1), ("0001", 0), ("0002", 0)
        ]
        assert all(o["frame"] == o["provenance"]["frame"] for o in objs)

    def test_byte_identical_rewrites(self, tmp_path):
        bank = [make_target(embedding=[0.123456789, -1.0])]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_bank(bank, a)
        write_bank(bank, b)
        assert a.read_bytes() == b.read_bytes()

    def test_compact_separators(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        write_bank([make_target()], path)
        line = path.read_text().splitlines()[0]
        assert ": " not in line and ", " not in line


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        targets = [
            make_target(embedding=[0.25, -0.75, 1.5]),
            make_target(proposal=1, fit=False, class_id="pedestrian"),
            make_target(proposal=2),
        ]
        path = tmp_path / "bank.jsonl"
        write_bank(targets, path)
        back = read_bank(path)
        assert len(back) == 3
        for orig, rt in zip(targets, back):
            assert np.array_equal(rt.box.as_array(), orig.box.as_array())
            assert rt.class_id == orig.class_id
            assert rt.cost == orig.cost
            assert rt.fit_for_alignment == orig.fit_for_alignment
            assert rt.provenance == orig.provenance
            if orig.embedding is None:
                assert rt.embedding is None
            else:
                assert np.array_equal(rt.embedding, orig.embedding)
            # The per-filter verdict is run-time only.
            assert rt.verdict is None

    def test_write_read_write_is_stable(self, tmp_path):
        bank = [make_target("0001", embedding=[1.0 / 3.0]), make_target("0000")]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_bank(bank, a)
        write_bank(read_bank(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_provenance_reads_back_as_the_dataclass(self, tmp_path):
        # Provenance is a frozen dataclass written with dataclasses.asdict; as a
        # NamedTuple it also compared equal to a plain tuple.
        path = tmp_path / "bank.jsonl"
        write_bank([make_target(proposal=4), make_target(proposal=7)], path)
        back = read_bank(path)
        assert [t.provenance for t in back] == [
            Provenance("0000", "cam0", 4), Provenance("0000", "cam0", 7)
        ]
        assert all(type(t.provenance) is Provenance for t in back)
        assert back[0].provenance != ("0000", "cam0", 4)

    def test_read_returns_file_order(self, tmp_path):
        # Lines out of frame order, as no writer leaves them, read back as they stand.
        path = tmp_path / "bank.jsonl"
        write_bank([make_target("0003")], tmp_path / "a.jsonl")
        write_bank([make_target("0001"), make_target("0001", proposal=1)], tmp_path / "b.jsonl")
        path.write_text((tmp_path / "a.jsonl").read_text() + (tmp_path / "b.jsonl").read_text())
        back = read_bank(path)
        assert [(t.provenance.frame, t.provenance.proposal) for t in back] == [
            ("0003", 0), ("0001", 0), ("0001", 1)
        ]


class TestReadErrors:
    GOOD = (
        '{"frame":"0","box":{"x":0,"y":0,"z":0,"l":4,"w":2,"h":1.5,"ry":0},'
        '"class":"car","cost":{"density":-1,"lshape":0,"surface":-1,"iou2d":-3,'
        '"total":-9},"fit_for_alignment":true,'
        '"provenance":{"frame":"0","camera":"cam0","proposal":0}}'
    )

    def test_reports_line_number(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text(self.GOOD + "\n{broken\n")
        with pytest.raises(ValidationError, match=r"bank\.jsonl: line 2: "):
            read_bank(path)

    def test_missing_key(self, tmp_path):
        obj = json.loads(self.GOOD)
        del obj["cost"]
        path = tmp_path / "bank.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValidationError, match=r"bank\.jsonl: line 1: missing key 'cost'"):
            read_bank(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(ValidationError, match=r"bank\.jsonl: line 1: line is not a JSON object"):
            read_bank(path)

    def test_frame_must_match_provenance(self, tmp_path):
        obj = json.loads(self.GOOD)
        obj["frame"] = "1"
        path = tmp_path / "bank.jsonl"
        path.write_text(self.GOOD + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValidationError,
                           match=r"bank\.jsonl: line 2: frame '1' differs from provenance"):
            read_bank(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text("\n" + self.GOOD + "\n\n")
        assert len(read_bank(path)) == 1
