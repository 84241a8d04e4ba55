"""Binary trial-archive format.

Little-endian layout, checksummed:

====================  =======================================
magic                 ``b"SPDT"`` (4 bytes)
version               u32, currently 1
kind                  u8: 0 time-series, 1 covariance
n_trials              u32, at least 1
n_classes             u32, at least 1
dims                  kind 0: channels u32, samples u32;
                      kind 1: dim u32
labels                n_trials x u32, each in [0, n_classes)
payload               float64 row-major, trial-major
crc32                 u32 over all preceding bytes
====================  =======================================

Writing then reading is the identity on the in-memory archive, and
reading then writing reproduces the file byte for byte.
"""

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .exceptions import CorruptArchive, InvalidInput, UnsupportedFormat
from .geometry import _first_not_spd, check_spd

__all__ = ["TrialArchive", "read_archive", "write_archive",
           "MAGIC", "VERSION"]

MAGIC = b"SPDT"
VERSION = 1
KIND_TIME_SERIES = 0
KIND_COVARIANCE = 1
_KIND_NAMES = {KIND_TIME_SERIES: "time-series", KIND_COVARIANCE: "covariance"}
_KIND_CODES = {v: k for k, v in _KIND_NAMES.items()}


@dataclass(frozen=True)
class TrialArchive:
    """Labeled trials of one recording session.

    ``trials`` is ``(n, channels, samples)`` float64 for time-series
    archives and ``(n, dim, dim)`` SPD matrices for covariance
    archives. Dataset, subject and session identifiers live outside
    the file format: ``meansfield eval`` takes the subject and session
    from each archive's file name.
    """

    kind: str
    trials: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise InvalidInput(f"unknown archive kind {self.kind!r}")
        trials = np.ascontiguousarray(self.trials, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.uint32)
        if trials.ndim != 3 or trials.shape[0] < 1:
            raise InvalidInput("trials must be a non-empty 3-d stack")
        if labels.shape != (trials.shape[0],):
            raise InvalidInput("need exactly one label per trial")
        if self.n_classes < 1:
            raise InvalidInput("n_classes must be at least 1")
        if labels.max() >= self.n_classes:
            raise InvalidInput("labels must lie in [0, n_classes)")
        if not np.all(np.isfinite(trials)):
            raise InvalidInput("trials contain non-finite values")
        if self.kind == "covariance":
            if trials.shape[1] != trials.shape[2]:
                raise InvalidInput("covariance trials must be square")
            check_spd(trials, name="trial")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "labels", labels)

    @property
    def n_trials(self):
        return self.trials.shape[0]

    @property
    def dim(self):
        if self.kind != "covariance":
            raise InvalidInput("dim is only defined for covariance archives")
        return self.trials.shape[1]


def write_archive(archive, path):
    """Serialize an archive; see the module docstring for the layout."""
    kind_code = _KIND_CODES[archive.kind]
    head = bytearray()
    head += MAGIC
    head += struct.pack("<I", VERSION)
    head += struct.pack("<B", kind_code)
    head += struct.pack("<II", archive.n_trials, archive.n_classes)
    if kind_code == KIND_TIME_SERIES:
        head += struct.pack("<II", archive.trials.shape[1],
                            archive.trials.shape[2])
    else:
        head += struct.pack("<I", archive.trials.shape[1])
    body = bytes(head)
    body += archive.labels.astype("<u4").tobytes()
    body += archive.trials.astype("<f8").tobytes()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", crc))


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.offset = 0

    def take(self, n, what):
        if self.offset + n > len(self.blob):
            raise CorruptArchive(
                f"file truncated while reading {what}", offset=self.offset
            )
        out = self.blob[self.offset:self.offset + n]
        self.offset += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u8(self, what):
        return struct.unpack("<B", self.take(1, what))[0]


def read_archive(path):
    """Read and validate a trial archive.

    Every structural field is checked (magic, version, kind, counts,
    label range, finiteness, checksum) and covariance payloads must
    pass the SPD check; violations raise :class:`CorruptArchive` with
    the offending byte offset. The result carries only what the file
    holds: no dataset, subject or session identifier.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise UnsupportedFormat(
            f"not a trial archive (magic {blob[:4]!r}, expected {MAGIC!r})"
        )
    if len(blob) < 8:
        raise CorruptArchive("file truncated before version", offset=4)
    version = struct.unpack("<I", blob[4:8])[0]
    if version != VERSION:
        raise UnsupportedFormat(
            f"unsupported archive version {version} (expected {VERSION})"
        )
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CorruptArchive(
            f"checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}", offset=len(blob) - 4,
        )

    r = _Reader(blob[:-4])
    r.offset = 8
    kind_offset = r.offset
    kind_code = r.u8("kind")
    if kind_code not in _KIND_NAMES:
        raise CorruptArchive(f"unknown kind byte {kind_code}",
                             offset=kind_offset)
    count_offset = r.offset
    n_trials = r.u32("n_trials")
    n_classes = r.u32("n_classes")
    if n_trials < 1:
        raise CorruptArchive("archive holds no trials", offset=count_offset)
    if n_classes < 1:
        raise CorruptArchive("archive declares no classes",
                             offset=count_offset + 4)
    if kind_code == KIND_TIME_SERIES:
        channels = r.u32("channels")
        samples = r.u32("samples")
        if channels < 1 or samples < 1:
            raise CorruptArchive("zero channels or samples",
                                 offset=r.offset - 8)
        shape = (n_trials, channels, samples)
    else:
        dim_offset = r.offset
        dim = r.u32("dim")
        if dim < 1:
            raise CorruptArchive("zero matrix dimension", offset=dim_offset)
        shape = (n_trials, dim, dim)

    labels_offset = r.offset
    labels = np.frombuffer(r.take(4 * n_trials, "labels"), dtype="<u4")
    bad = np.flatnonzero(labels >= n_classes)
    if bad.size:
        raise CorruptArchive(
            f"label {labels[bad[0]]} out of range [0, {n_classes})",
            offset=labels_offset + 4 * int(bad[0]),
        )

    payload_offset = r.offset
    n_values = int(np.prod(shape))
    payload = np.frombuffer(
        r.take(8 * n_values, "payload"), dtype="<f8"
    ).reshape(shape)
    if r.offset != len(r.blob):
        raise CorruptArchive(
            f"{len(r.blob) - r.offset} unexpected trailing bytes",
            offset=r.offset,
        )
    finite = np.isfinite(payload)
    if not finite.all():
        first_bad = int(np.flatnonzero(~finite.ravel())[0])
        raise CorruptArchive(
            "payload contains a non-finite value",
            offset=payload_offset + 8 * first_bad,
        )
    kind = _KIND_NAMES[kind_code]
    bad = _first_not_spd(payload) if kind == "covariance" else None
    if bad is not None:
        i, problem = bad
        raise CorruptArchive(f"covariance trial {i} {problem}",
                             offset=payload_offset + 8 * i * dim * dim)

    return TrialArchive(kind=kind, trials=payload.copy(),
                        labels=labels.copy(), n_classes=n_classes)
