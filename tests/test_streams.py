"""The shared binary stream convention and the faults of its three codecs.

Every truncation, byte flip and random byte of a small MOCC grid, MPLY cloud
and MCKPT checkpoint must either decode or raise CodecError, nothing else.
"""

import numpy as np
import pytest

from mdocc.align import NormState
from mdocc.core import (
    BadMagic,
    CodecError,
    OccupancyGrid,
    StreamReader,
    StreamWriter,
    TruncatedPayload,
    VersionUnsupported,
    grid_decode,
    grid_encode,
    rng_stream,
)
from mdocc.model import checkpoint_decode, init_params, load_checkpoint, save_checkpoint
from mdocc.scenes import cloud_decode, cloud_encode


def sample_stream():
    stream = StreamWriter(b"TEST", 3)
    stream.pack("Id", 7, -1.5)
    stream.name("héad.a32")
    stream.array(np.arange(4, dtype=np.int64), "<u2")
    return stream.getvalue()


class TestStream:
    def test_round_trip(self):
        blob = sample_stream()
        assert blob[:6] == b"TEST\x03\x00"
        with StreamReader(blob, b"TEST", 3) as stream:
            assert stream.unpack("Id") == (7, -1.5)
            assert stream.name() == "héad.a32"
            labels = stream.array("<u2", 4)
        assert labels.tolist() == [0, 1, 2, 3]

    def test_header_faults(self):
        blob = sample_stream()
        with pytest.raises(BadMagic) as err:
            StreamReader(blob, b"MOCC", 3)
        assert err.value.offset == 0
        with pytest.raises(VersionUnsupported) as err:
            StreamReader(blob, b"TEST", 1)
        assert err.value.offset == 4
        with pytest.raises(TruncatedPayload) as err:
            StreamReader(blob[:5], b"TEST", 3)
        assert err.value.offset == 5

    def test_truncated_field_at_stream_length(self):
        with pytest.raises(TruncatedPayload) as err:
            with StreamReader(sample_stream()[:-1], b"TEST", 3) as stream:
                stream.unpack("Id")
                stream.name()
                stream.array("<u2", 4)
        assert err.value.offset == len(sample_stream()) - 1

    def test_trailing_bytes_at_their_start(self):
        blob = sample_stream()
        with pytest.raises(CodecError) as err:
            with StreamReader(blob + b"\x00\x00", b"TEST", 3) as stream:
                stream.take(len(blob) - 6)
        assert err.value.offset == len(blob)

    @pytest.mark.parametrize("fault", [ValueError, KeyError, IndexError, UnicodeDecodeError])
    def test_build_faults_become_codec_errors(self, fault):
        args = ("utf-8", b"\xff", 0, 1, "bad") if fault is UnicodeDecodeError else ("x",)
        with pytest.raises(CodecError) as err:
            with StreamReader(sample_stream(), b"TEST", 3) as stream:
                stream.unpack("I")
                raise fault(*args)
        assert err.value.offset == 10

    def test_other_faults_pass_through(self):
        with pytest.raises(TypeError):
            with StreamReader(sample_stream(), b"TEST", 3):
                raise TypeError("a program fault, not a stream fault")


def small_grid():
    labels = rng_stream(5, "fuzz-grid").integers(0, 4, size=12)
    return OccupancyGrid((3, 2, 2), 0.4, (-1.0, 0.0, 0.5), labels, 4)


def small_cloud():
    return rng_stream(5, "fuzz-cloud").normal(size=(5, 3))


def small_checkpoint(tmp_path):
    return save_checkpoint(tmp_path / "small.mckpt", init_params({"a": 3}, 2, 0), NormState(2, ["a"]))


def mutants(blob, seed):
    """(what, bytes) for every strict prefix, every byte XORed with 0xFF and
    every byte set to a seeded random value."""
    noise = rng_stream(seed, "fuzz-bytes").integers(0, 256, size=len(blob))
    for cut in range(len(blob)):
        yield f"cut at {cut}", blob[:cut]
    for i in range(len(blob)):
        yield f"byte {i} ^ 0xff", blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]
    for i in range(len(blob)):
        yield f"byte {i} = {noise[i]}", blob[:i] + bytes([int(noise[i])]) + blob[i + 1:]


def assert_decodes_or_codec_error(decode, blob, seed):
    for what, bad in mutants(blob, seed):
        try:
            decode(bad)
        except CodecError:
            continue
        except Exception as e:  # the fault under test: report which mutant raised it
            pytest.fail(f"{what}: {type(e).__name__}: {e}")
        assert not what.startswith("cut"), f"{what}: a truncated stream decoded"


class TestFaultInjection:
    def test_mocc(self):
        blob = grid_encode(small_grid())
        assert grid_decode(blob) == small_grid()
        assert_decodes_or_codec_error(grid_decode, blob, seed=1)

    def test_mply(self):
        blob = cloud_encode(small_cloud())
        assert np.array_equal(cloud_decode(blob), small_cloud())
        assert_decodes_or_codec_error(cloud_decode, blob, seed=2)

    def test_mckpt(self, tmp_path):
        blob = small_checkpoint(tmp_path)
        params, _ = load_checkpoint(tmp_path / "small.mckpt")
        assert np.array_equal(checkpoint_decode(blob)[0].w1, params.w1)
        # v2: the regime name right after the header is mutated like the rest
        assert blob[4:11] == b"\x02\x00\x03\x00mdt" and params.regime == "mdt"
        assert_decodes_or_codec_error(checkpoint_decode, blob, seed=3)

    @pytest.mark.parametrize("part", ["w1", "head weight", "head bias", "running mean"])
    def test_mckpt_shapes_that_disagree(self, tmp_path, part):
        params, state = init_params({"a": 3}, 2, 0), NormState(2, ["a"])
        w, b = params.heads["a"]
        if part == "w1":
            params.w1 = params.w1[:, :1]
        elif part == "head weight":
            params.heads["a"] = (w[:, :2], b)
        elif part == "head bias":
            params.heads["a"] = (w, b[:, None])
        else:
            state = NormState(3, ["a"])
            state.gamma, state.beta = params.b1 + 1.0, params.b1.copy()
        blob = save_checkpoint(tmp_path / "bad.mckpt", params, state)
        with pytest.raises(CodecError):
            checkpoint_decode(blob)
