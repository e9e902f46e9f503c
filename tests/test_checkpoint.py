"""Checkpoint binary format: round-trips, integrity, and corruption modes."""

import hashlib
import json
import struct

import numpy as np
import pytest

from doctrain.checkpoint import (FORMAT_VERSION, MAGIC, Checkpoint,
                                 checkpoint_bytes, load_checkpoint,
                                 parse_checkpoint, save_checkpoint)
from doctrain.errors import CorruptCheckpoint, UnsupportedVersion

from conftest import raw_checkpoint


def sample_checkpoint():
    return Checkpoint(
        meta={"config": {"d_model": 4}, "note": "unit test"},
        tensors={
            "b.matrix": np.arange(12, dtype=np.float32).reshape(3, 4),
            "a.vector": np.array([1.5, -2.25], dtype=np.float32),
            "c.scalarish": np.array(7.0, dtype=np.float32),
        },
    )


class TestRoundTrip:
    def test_file_round_trip_preserves_everything(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "m.ckpt"
        digest = save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.meta == ckpt.meta
        assert loaded.version == FORMAT_VERSION
        assert loaded.digest == digest
        assert set(loaded.tensors) == set(ckpt.tensors)
        for name, arr in ckpt.tensors.items():
            got = loaded.tensors[name]
            assert got.dtype == np.float32
            assert got.shape == arr.shape
            assert np.array_equal(got, arr)

    def test_save_of_load_is_byte_identical(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        original = path.read_bytes()
        again = tmp_path / "again.ckpt"
        save_checkpoint(load_checkpoint(path), again)
        assert again.read_bytes() == original

    def test_equal_contents_serialize_identically(self):
        # dict insertion order must not leak into the bytes
        a = sample_checkpoint()
        b = Checkpoint(meta=dict(reversed(list(a.meta.items()))),
                       tensors=dict(reversed(list(a.tensors.items()))))
        assert checkpoint_bytes(a) == checkpoint_bytes(b)

    def test_parse_accepts_raw_bytes(self):
        blob = checkpoint_bytes(sample_checkpoint())
        assert parse_checkpoint(blob).meta["note"] == "unit test"

    def test_each_tensor_owns_one_copy(self):
        blob = checkpoint_bytes(sample_checkpoint())
        from_bytes = parse_checkpoint(blob)
        from_bytearray = parse_checkpoint(bytearray(blob))
        assert from_bytes.meta == from_bytearray.meta
        assert from_bytes.digest == from_bytearray.digest
        assert checkpoint_bytes(from_bytearray) == blob
        for ckpt in (from_bytes, from_bytearray):
            for name, arr in ckpt.tensors.items():
                assert arr.flags.owndata and arr.flags.writeable, name


class TestCorruption:
    def test_flipped_payload_byte_fails_digest(self):
        blob = bytearray(checkpoint_bytes(sample_checkpoint()))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CorruptCheckpoint, match="digest"):
            parse_checkpoint(bytes(blob))

    def test_truncation_fails_digest(self):
        blob = checkpoint_bytes(sample_checkpoint())
        with pytest.raises(CorruptCheckpoint):
            parse_checkpoint(blob[:-10])

    def test_too_short_file(self):
        with pytest.raises(CorruptCheckpoint, match="short"):
            parse_checkpoint(b"DT")

    def test_bad_magic(self):
        blob = bytearray(checkpoint_bytes(sample_checkpoint()))
        blob[:4] = b"NOPE"
        # keep the digest honest so the magic check is what fires
        body = bytes(blob[:-32])
        with pytest.raises(CorruptCheckpoint, match="magic"):
            parse_checkpoint(body + hashlib.sha256(body).digest())

    def test_unsupported_version(self):
        blob = bytearray(checkpoint_bytes(sample_checkpoint()))
        struct.pack_into("<I", blob, len(MAGIC), 99)
        body = bytes(blob[:-32])
        with pytest.raises(UnsupportedVersion, match="99"):
            parse_checkpoint(body + hashlib.sha256(body).digest())

    def test_trailing_bytes_detected(self):
        blob = checkpoint_bytes(sample_checkpoint())
        body = blob[:-32] + b"\x00\x00\x00\x00"
        with pytest.raises(CorruptCheckpoint, match="trailing"):
            parse_checkpoint(body + hashlib.sha256(body).digest())


class TestMalformedStructure:
    META = json.dumps({"config": {"d_model": 4}}).encode()

    def test_well_formed_raw_file_parses(self):
        ckpt = parse_checkpoint(raw_checkpoint(self.META, [b"a", b"b"], (2, 3)))
        assert sorted(ckpt.tensors) == ["a", "b"]
        assert ckpt.tensors["b"].shape == (2, 3)

    def test_name_that_is_not_utf8(self):
        with pytest.raises(CorruptCheckpoint, match="not UTF-8"):
            parse_checkpoint(raw_checkpoint(self.META, [b"a", b"\xff\xfe"]))

    def test_duplicate_names(self):
        """The last payload would silently win, and a save of the load
        would not reproduce the file."""
        with pytest.raises(CorruptCheckpoint, match="unique and sorted"):
            parse_checkpoint(raw_checkpoint(self.META, [b"a", b"a"]))

    def test_names_out_of_order(self):
        with pytest.raises(CorruptCheckpoint, match="unique and sorted"):
            parse_checkpoint(raw_checkpoint(self.META, [b"b", b"a"]))

    def test_dims_whose_product_wraps_in_int64(self):
        """65536⁴ = 2⁶⁴ wraps to 0 in int64; the payload is checked against
        the exact size, so the file is truncated, not an empty tensor."""
        blob = raw_checkpoint(self.META, [b"a"], shape=(65536,) * 4,
                              payload=b"")
        with pytest.raises(CorruptCheckpoint, match="truncated"):
            parse_checkpoint(blob)

    @pytest.mark.parametrize("meta", [[1, 2], "text", 3, None],
                             ids=["list", "string", "number", "null"])
    def test_meta_that_is_not_an_object(self, meta):
        with pytest.raises(CorruptCheckpoint, match="not an object"):
            parse_checkpoint(raw_checkpoint(json.dumps(meta).encode(), [b"a"]))


class TestDeterminism:
    def test_same_content_same_digest_across_files(self, tmp_path):
        d1 = save_checkpoint(sample_checkpoint(), tmp_path / "a.ckpt")
        d2 = save_checkpoint(sample_checkpoint(), tmp_path / "b.ckpt")
        assert d1 == d2
        assert (tmp_path / "a.ckpt").read_bytes() == (
            tmp_path / "b.ckpt").read_bytes()

    def test_different_content_different_digest(self, tmp_path):
        a = sample_checkpoint()
        b = sample_checkpoint()
        b.tensors["a.vector"] = b.tensors["a.vector"] + 1.0
        assert save_checkpoint(a, tmp_path / "a.ckpt") != save_checkpoint(
            b, tmp_path / "b.ckpt")
