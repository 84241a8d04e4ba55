"""Binary trial-archive format: round trips, the hand-built byte
oracle, and corruption detection."""

import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from meansfield.archive import (
    MAGIC, TrialArchive, read_archive, write_archive,
)
from meansfield.exceptions import CorruptArchive, InvalidInput, \
    UnsupportedFormat

from oracles import random_spd


def build_bytes(kind, n_trials, n_classes, dims, labels, payload,
                crc=None, version=1, magic=MAGIC):
    """Assemble archive bytes by hand, independent of the writer."""
    blob = bytearray()
    blob += magic
    blob += struct.pack("<I", version)
    blob += struct.pack("<B", kind)
    blob += struct.pack("<II", n_trials, n_classes)
    for d in dims:
        blob += struct.pack("<I", d)
    for lab in labels:
        blob += struct.pack("<I", lab)
    for value in payload:
        blob += struct.pack("<d", value)
    if crc is None:
        crc = zlib.crc32(bytes(blob)) & 0xFFFFFFFF
    blob += struct.pack("<I", crc)
    return bytes(blob)


@pytest.fixture
def cov_archive():
    rng = np.random.default_rng(0)
    trials = []
    for _ in range(4):
        a = rng.standard_normal((3, 3))
        trials.append(a @ a.T + 3 * np.eye(3))
    return TrialArchive(kind="covariance", trials=np.stack(trials),
                        labels=np.array([0, 1, 0, 1]), n_classes=2)


@pytest.fixture
def ts_archive():
    rng = np.random.default_rng(1)
    return TrialArchive(kind="time-series",
                        trials=rng.standard_normal((5, 4, 16)),
                        labels=np.array([0, 0, 1, 1, 1]), n_classes=2)


class TestRoundTrip:
    def test_covariance_roundtrip(self, cov_archive, tmp_path):
        path = tmp_path / "a.spdt"
        write_archive(cov_archive, path)
        back = read_archive(path)
        assert back.kind == "covariance"
        np.testing.assert_array_equal(back.trials, cov_archive.trials)
        np.testing.assert_array_equal(back.labels, cov_archive.labels)
        assert back.n_classes == 2

    def test_write_read_write_is_byte_identity(self, ts_archive, tmp_path):
        p1, p2 = tmp_path / "a.spdt", tmp_path / "b.spdt"
        write_archive(ts_archive, p1)
        write_archive(read_archive(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestByteOracle:
    def test_hand_built_single_trial(self, tmp_path):
        # 1 covariance trial, dim 2, matrix [[2,1],[1,2]], label 0
        blob = build_bytes(kind=1, n_trials=1, n_classes=1, dims=[2],
                           labels=[0], payload=[2.0, 1.0, 1.0, 2.0])
        path = tmp_path / "hand.spdt"
        path.write_bytes(blob)
        archive = read_archive(path)
        assert archive.n_trials == 1
        np.testing.assert_array_equal(archive.trials[0],
                                      [[2.0, 1.0], [1.0, 2.0]])
        assert archive.labels.tolist() == [0]

    def test_writer_matches_hand_layout(self, tmp_path):
        archive = TrialArchive(
            kind="covariance",
            trials=np.array([[[2.0, 1.0], [1.0, 2.0]]]),
            labels=np.array([0]), n_classes=1,
        )
        path = tmp_path / "w.spdt"
        write_archive(archive, path)
        expected = build_bytes(kind=1, n_trials=1, n_classes=1, dims=[2],
                               labels=[0], payload=[2.0, 1.0, 1.0, 2.0])
        assert path.read_bytes() == expected

    def test_time_series_layout(self, tmp_path):
        # 2 trials x 1 channel x 3 samples, trial-major payload
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        blob = build_bytes(kind=0, n_trials=2, n_classes=2, dims=[1, 3],
                           labels=[0, 1], payload=data)
        path = tmp_path / "ts.spdt"
        path.write_bytes(blob)
        archive = read_archive(path)
        np.testing.assert_array_equal(archive.trials[0], [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(archive.trials[1], [[4.0, 5.0, 6.0]])


class TestValidation:
    def test_empty_trials_rejected_on_write(self):
        with pytest.raises(InvalidInput):
            TrialArchive(kind="covariance", trials=np.zeros((0, 2, 2)),
                         labels=np.zeros(0), n_classes=1)

    def test_empty_trials_rejected_on_read(self, tmp_path):
        blob = build_bytes(kind=1, n_trials=0, n_classes=1, dims=[2],
                           labels=[], payload=[])
        path = tmp_path / "empty.spdt"
        path.write_bytes(blob)
        with pytest.raises(CorruptArchive):
            read_archive(path)

    def test_bad_magic(self, tmp_path):
        blob = build_bytes(kind=1, n_trials=1, n_classes=1, dims=[2],
                           labels=[0], payload=[2.0, 1.0, 1.0, 2.0],
                           magic=b"XXXX")
        path = tmp_path / "bad.spdt"
        path.write_bytes(blob)
        with pytest.raises(UnsupportedFormat):
            read_archive(path)

    def test_bad_version(self, tmp_path):
        blob = build_bytes(kind=1, n_trials=1, n_classes=1, dims=[2],
                           labels=[0], payload=[2.0, 1.0, 1.0, 2.0],
                           version=9)
        path = tmp_path / "v9.spdt"
        path.write_bytes(blob)
        with pytest.raises(UnsupportedFormat):
            read_archive(path)

    def test_label_out_of_range_offset(self, tmp_path):
        blob = build_bytes(kind=1, n_trials=1, n_classes=1, dims=[2],
                           labels=[5], payload=[2.0, 1.0, 1.0, 2.0])
        path = tmp_path / "lbl.spdt"
        path.write_bytes(blob)
        with pytest.raises(CorruptArchive) as err:
            read_archive(path)
        assert err.value.offset == 21  # 4+4+1+4+4+4 header bytes

    def test_crc_mismatch(self, cov_archive, tmp_path):
        path = tmp_path / "crc.spdt"
        write_archive(cov_archive, path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptArchive) as err:
            read_archive(path)
        assert "checksum" in str(err.value)

    def test_truncated_payload(self, tmp_path):
        blob = build_bytes(kind=1, n_trials=2, n_classes=1, dims=[2],
                           labels=[0, 0],
                           payload=[2.0, 1.0, 1.0, 2.0])  # one trial short
        path = tmp_path / "trunc.spdt"
        path.write_bytes(blob)
        with pytest.raises(CorruptArchive):
            read_archive(path)

    def test_non_finite_payload(self, tmp_path):
        blob = build_bytes(kind=0, n_trials=1, n_classes=1, dims=[1, 3],
                           labels=[0], payload=[1.0, float("nan"), 2.0])
        path = tmp_path / "nan.spdt"
        path.write_bytes(blob)
        with pytest.raises(CorruptArchive) as err:
            read_archive(path)
        # header (25 bytes) + one label (4) + first value (8)
        assert err.value.offset == 37

    def test_asymmetric_covariance(self, tmp_path):
        blob = build_bytes(kind=1, n_trials=1, n_classes=1, dims=[2],
                           labels=[0], payload=[2.0, 1.0, 0.5, 2.0])
        path = tmp_path / "asym.spdt"
        path.write_bytes(blob)
        with pytest.raises(CorruptArchive):
            read_archive(path)

    def test_indefinite_covariance(self, tmp_path):
        blob = build_bytes(kind=1, n_trials=1, n_classes=1, dims=[2],
                           labels=[0], payload=[1.0, 2.0, 2.0, 1.0])
        path = tmp_path / "indef.spdt"
        path.write_bytes(blob)
        with pytest.raises(CorruptArchive):
            read_archive(path)

    @pytest.mark.parametrize("bad,reason", [
        ([2.0, 1.0, 0.5, 2.0], "symmetric"),
        ([1.0, 2.0, 2.0, 1.0], "positive definite"),
    ])
    def test_first_bad_trial_named_with_offset(self, tmp_path, bad, reason):
        good = [2.0, 1.0, 1.0, 2.0]
        blob = build_bytes(kind=1, n_trials=3, n_classes=1, dims=[2],
                           labels=[0, 0, 0], payload=good + bad + bad)
        path = tmp_path / "second.spdt"
        path.write_bytes(blob)
        with pytest.raises(CorruptArchive,
                           match=f"trial 1 is not {reason}") as info:
            read_archive(path)
        # header 21 bytes, labels 12, then the first 2x2 trial
        assert info.value.offset == 21 + 12 + 32

    def test_constructor_names_bad_trial(self):
        trials = np.stack([np.eye(2), np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(InvalidInput,
                           match="trial 2 is not positive definite"):
            TrialArchive(kind="covariance", trials=trials,
                         labels=np.zeros(3, dtype=int), n_classes=1)

    def test_trailing_bytes(self, tmp_path):
        blob = build_bytes(kind=1, n_trials=1, n_classes=1, dims=[2],
                           labels=[0], payload=[2.0, 1.0, 1.0, 2.0])
        body = blob[:-4] + b"\x00\x00"
        crc = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path = tmp_path / "trail.spdt"
        path.write_bytes(body + crc)
        with pytest.raises(CorruptArchive):
            read_archive(path)

    def test_writer_validates_labels(self):
        with pytest.raises(InvalidInput):
            TrialArchive(kind="covariance",
                         trials=np.stack([np.eye(2)]),
                         labels=np.array([3]), n_classes=2)
        # fractional or negative labels, and a fractional or bool class
        # count, are refused rather than truncated or wrapped
        for labels, n_classes in (([0.7, 1.2], 2), ([0.0, 1.0], 2),
                                  ([0, -1], 2), ([0, 1], 2.5),
                                  ([0, 0], True)):
            with pytest.raises(InvalidInput):
                TrialArchive(kind="covariance",
                             trials=np.stack([np.eye(2)] * 2),
                             labels=np.array(labels), n_classes=n_classes)


def with_crc(body):
    """``body`` followed by its CRC-32: a file that passes the checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


class TestHeaderContract:
    """Header faults under a valid checksum, each at the byte offset
    that ``docs/archive_format.md`` documents."""

    @pytest.mark.parametrize("body,offset", [
        (MAGIC + struct.pack("<IB", 1, 1), 9),
        (MAGIC + struct.pack("<IBIII", 1, 0, 1, 1, 3), 21),
    ], ids=["fixed-header", "dims"])
    def test_file_cut_in_the_header(self, tmp_path, body, offset):
        # magic, version and kind, then 4 of a time-series header's 8
        # bytes of dims: the header breaks off where the bytes end
        path = tmp_path / "cut.spdt"
        path.write_bytes(with_crc(body))
        with pytest.raises(CorruptArchive,
                           match="^file truncated in the header") as err:
            read_archive(path)
        assert err.value.offset == offset

    def test_unknown_kind_byte(self, tmp_path):
        path = tmp_path / "kind.spdt"
        path.write_bytes(build_bytes(kind=7, n_trials=1, n_classes=1,
                                     dims=[2], labels=[0],
                                     payload=[2.0, 1.0, 1.0, 2.0]))
        with pytest.raises(CorruptArchive,
                           match="^unknown kind byte 7") as err:
            read_archive(path)
        assert err.value.offset == 8

    def test_constructor_refuses_unknown_kind(self):
        with pytest.raises(InvalidInput, match="unknown archive kind"):
            TrialArchive("spectra", np.stack([np.eye(2)]), np.array([0]), 1)

    def test_constructor_refuses_non_square_covariance(self):
        with pytest.raises(InvalidInput,
                           match="^covariance trials must be square$"):
            TrialArchive("covariance", np.ones((2, 2, 3)), np.array([0, 0]),
                         1)


@st.composite
def archives(draw):
    """Archives of either kind: 1-20 trials, dims 1-8, up to 4 classes."""
    n = draw(st.integers(1, 20))
    n_classes = draw(st.integers(1, 4))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, n_classes - 1)))
    if draw(st.booleans()):
        shape = (n, draw(st.integers(1, 8)), draw(st.integers(1, 8)))
        trials = draw(arrays(np.float64, shape, elements=st.floats(
            allow_nan=False, allow_infinity=False)))
        return TrialArchive("time-series", trials, labels, n_classes)
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.floats(0.0, 20.0))
    trials = np.stack([random_spd(dim, rng, spread) for _ in range(n)])
    trials = 0.5 * (trials + trials.transpose(0, 2, 1))
    return TrialArchive("covariance", trials, labels, n_classes)


def small_archive_bytes(kind, tmp_path):
    rng = np.random.default_rng(3)
    trials = rng.standard_normal((2, 3, 4))
    if kind == "covariance":
        trials = trials @ trials.transpose(0, 2, 1)
    path = tmp_path / f"{kind}.spdt"
    write_archive(TrialArchive(kind, trials, np.array([0, 1]), 2), path)
    return path.read_bytes()


def with_field(blob, offset, value):
    """``blob`` with the u32 at ``offset`` replaced and the CRC redone."""
    body = bytearray(blob[:-4])
    body[offset:offset + 4] = struct.pack("<I", value)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


class TestContract:
    @settings(max_examples=60)
    @given(archives())
    def test_round_trips(self, archive):
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.spdt", Path(tmp) / "b.spdt"
            write_archive(archive, p1)
            back = read_archive(p1)
            write_archive(back, p2)
            assert p2.read_bytes() == p1.read_bytes()
        assert (back.kind, back.n_classes) == (archive.kind, archive.n_classes)
        assert back.labels.dtype == np.uint32
        assert back.labels.tolist() == archive.labels.tolist()
        assert back.trials.shape == archive.trials.shape
        assert back.trials.tobytes() == archive.trials.tobytes()

    @pytest.mark.parametrize("kind", ["time-series", "covariance"])
    def test_every_truncation_is_a_format_error(self, kind, tmp_path):
        blob = small_archive_bytes(kind, tmp_path)
        path = tmp_path / "cut.spdt"
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            with pytest.raises((UnsupportedFormat, CorruptArchive)):
                read_archive(path)

    @pytest.mark.parametrize("kind,offsets", [
        ("time-series", [9]), ("time-series", [17]), ("time-series", [21]),
        ("time-series", [17, 21]), ("covariance", [9]), ("covariance", [17]),
    ], ids=["ts-trials", "ts-channels", "ts-samples", "ts-dims", "cov-trials",
            "cov-dim"])
    def test_largest_count_or_dim_is_corrupt(self, kind, offsets, tmp_path):
        # n_trials or dims of 2**32 - 1: no file is that long, and with
        # a square or two such dims the implied size overflows int64
        blob = small_archive_bytes(kind, tmp_path)
        for offset in offsets:
            blob = with_field(blob, offset, 2**32 - 1)
        path = tmp_path / "huge.spdt"
        path.write_bytes(blob)
        with pytest.raises(CorruptArchive) as err:
            read_archive(path)
        assert err.value.offset is not None

    @pytest.mark.parametrize("kind", ["time-series", "covariance"])
    def test_largest_class_count_reads(self, kind, tmp_path):
        path = tmp_path / "classes.spdt"
        path.write_bytes(with_field(small_archive_bytes(kind, tmp_path),
                                    13, 2**32 - 1))
        assert read_archive(path).n_classes == 2**32 - 1

    def test_read_checks_spd_with_one_eigvalsh_call(self, tmp_path,
                                                    monkeypatch):
        rng = np.random.default_rng(4)
        trials = np.stack([random_spd(5, rng) for _ in range(7)])
        trials = 0.5 * (trials + trials.transpose(0, 2, 1))
        path = tmp_path / "cov.spdt"
        write_archive(TrialArchive("covariance", trials, np.zeros(7, int), 1),
                      path)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a)[:-2])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        read_archive(path)
        assert calls == [(7,)]
