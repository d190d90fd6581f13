import hashlib

import numpy as np
import pytest

from periocast.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from periocast.errors import CheckpointError
from periocast.neural import ParamStore
from periocast.rng import Prng


def _store():
    store = ParamStore()
    store.add("enc.w", 3, 4, Prng(0))
    store.add("enc.b", 1, 4, None)
    store.add("head.w", 4, 1, Prng(1))
    return store


META = {"model": {"hidden": 4}, "ablation": "full", "seed": 3}


def test_round_trip_bitwise(tmp_path):
    store = _store()
    path = tmp_path / "model.ckpt"
    checksum = save_checkpoint(path, store, META)
    loaded, meta, checksum2 = load_checkpoint(path)
    assert checksum == checksum2
    assert len(checksum) == 64
    assert meta == META
    assert loaded.names() == store.names()
    assert loaded.values.tobytes() == store.values.tobytes()
    for name in store.names():
        assert np.array_equal(loaded[name].data, store[name].data)
        assert np.shares_memory(loaded[name].data, loaded.values)


def test_duplicate_tensor_name_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _store(), META)

    def repeat_name(body):
        at = bytes(body).index(b"enc.b")
        body[at: at + 5] = b"enc.w"

    _rewrite_with_valid_digest(path, repeat_name)
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


def test_identical_saves_identical_bytes(tmp_path):
    store = _store()
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    ca = save_checkpoint(a, store, META)
    cb = save_checkpoint(b, store, META)
    assert ca == cb
    assert a.read_bytes() == b.read_bytes()


def test_checksum_tracks_content(tmp_path):
    store = _store()
    c1 = save_checkpoint(tmp_path / "a.ckpt", store, META)
    store["enc.w"].data[0, 0] += 1e-12
    c2 = save_checkpoint(tmp_path / "b.ckpt", store, META)
    assert c1 != c2


def test_corrupted_byte_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _store(), META)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_truncated_file_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _store(), META)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_tiny_file_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"PC")
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def _rewrite_with_valid_digest(path, mutate):
    raw = bytearray(path.read_bytes())
    body = bytearray(raw[:-32])
    mutate(body)
    digest = hashlib.sha256(bytes(body)).digest()
    path.write_bytes(bytes(body) + digest)


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _store(), META)

    def flip_magic(body):
        body[0] ^= 0xFF

    _rewrite_with_valid_digest(path, flip_magic)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _store(), META)

    def bump_version(body):
        body[len(MAGIC)] = 99

    _rewrite_with_valid_digest(path, bump_version)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_trailing_bytes_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _store(), META)

    def append_junk(body):
        body += b"\x00"

    _rewrite_with_valid_digest(path, append_junk)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)
