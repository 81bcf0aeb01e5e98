"""JSONL target bank: serialization layout, round trips, error reporting."""

import json

import numpy as np
import pytest

from autobox3d.bank import (
    NovelObjectBank,
    NovelObjectTarget,
    Provenance,
    read_bank,
    write_bank,
)
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
        bank = NovelObjectBank({"0000": [make_target(embedding=[0.5, -0.5])]})
        path = tmp_path / "bank.jsonl"
        write_bank(bank, path)
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
        bank = NovelObjectBank({"0000": [make_target()]})
        path = tmp_path / "bank.jsonl"
        write_bank(bank, path)
        obj = json.loads(path.read_text())
        assert "embedding" not in obj
        assert "verdict" not in obj

    def test_frames_written_sorted(self, tmp_path):
        bank = NovelObjectBank({
            "0002": [make_target("0002")],
            "0000": [make_target("0000"), make_target("0000", proposal=1)],
        })
        path = tmp_path / "bank.jsonl"
        write_bank(bank, path)
        frames = [json.loads(l)["frame"] for l in path.read_text().splitlines()]
        assert frames == ["0000", "0000", "0002"]

    def test_byte_identical_rewrites(self, tmp_path):
        bank = NovelObjectBank({"0000": [make_target(embedding=[0.123456789, -1.0])]})
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_bank(bank, a)
        write_bank(bank, b)
        assert a.read_bytes() == b.read_bytes()

    def test_compact_separators(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        write_bank(NovelObjectBank({"0000": [make_target()]}), path)
        line = path.read_text().splitlines()[0]
        assert ": " not in line and ", " not in line


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        targets = [
            make_target(embedding=[0.25, -0.75, 1.5]),
            make_target(proposal=1, fit=False, class_id="pedestrian"),
            make_target(proposal=2),
        ]
        bank = NovelObjectBank({"0000": targets})
        path = tmp_path / "bank.jsonl"
        write_bank(bank, path)
        back = read_bank(path)
        assert len(back) == 3
        got = back.frames["0000"]
        for orig, rt in zip(targets, got):
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
        bank = NovelObjectBank({
            "0001": [make_target("0001", embedding=[1.0 / 3.0])],
            "0000": [make_target("0000")],
        })
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_bank(bank, a)
        write_bank(read_bank(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_all_targets_iterates_sorted_frames(self):
        bank = NovelObjectBank({
            "0003": [make_target("0003")],
            "0001": [make_target("0001"), make_target("0001", proposal=1)],
        })
        frames = [t.provenance.frame for t in bank.all_targets()]
        assert frames == ["0001", "0001", "0003"]
        assert len(bank) == 3


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
        with pytest.raises(ValidationError, match="line 2"):
            read_bank(path)

    def test_missing_key(self, tmp_path):
        obj = json.loads(self.GOOD)
        del obj["cost"]
        path = tmp_path / "bank.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValidationError, match="line 1.*cost"):
            read_bank(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(ValidationError, match="not a JSON object"):
            read_bank(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text("\n" + self.GOOD + "\n\n")
        assert len(read_bank(path)) == 1
