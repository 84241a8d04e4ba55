"""Binary trial archives (``.spdt``), in the layout and with the
checks of ``docs/archive_format.md``."""

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .exceptions import CorruptArchive, InvalidInput, UnsupportedFormat
from .geometry import _first_not_spd, _is_integer

__all__ = ["TrialArchive", "read_archive", "write_archive"]

MAGIC = b"SPDT"
VERSION = 1
KIND_TIME_SERIES = 0
KIND_COVARIANCE = 1
_KIND_NAMES = {KIND_TIME_SERIES: "time-series", KIND_COVARIANCE: "covariance"}
_KIND_CODES = {v: k for k, v in _KIND_NAMES.items()}

# magic, version, kind, n_trials, n_classes; then the dims of each kind
_HEAD = struct.Struct("<4sIBII")
_DIMS = {KIND_TIME_SERIES: struct.Struct("<II"),
         KIND_COVARIANCE: struct.Struct("<I")}
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class TrialArchive:
    """Labeled trials of one recording session: ``trials`` is ``(n,
    channels, samples)`` float64 for time-series archives and ``(n,
    dim, dim)`` SPD matrices for covariance archives; ``labels`` are
    integers in ``[0, n_classes)``, stored as ``uint32``."""

    kind: str
    trials: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise InvalidInput(f"unknown archive kind {self.kind!r}")
        trials = np.require(self.trials, np.float64, "CAW")
        labels = np.asarray(self.labels)
        if trials.ndim != 3 or trials.shape[0] < 1:
            raise InvalidInput("trials must be a non-empty 3-d stack")
        if labels.shape != (trials.shape[0],) or labels.dtype.kind not in "iu":
            raise InvalidInput("need exactly one integer label per trial")
        if not (_is_integer(self.n_classes) and 1 <= self.n_classes < 2**32):
            raise InvalidInput("n_classes must be an integer in [1, 2**32)")
        if self.kind == "covariance" and trials.shape[1] != trials.shape[2]:
            raise InvalidInput("covariance trials must be square")
        problem = _first_problem(self.kind, trials, labels, self.n_classes)
        if problem is not None:
            error = InvalidInput(problem[0])
            error.offset = problem[1]  # read_archive reports it in the file
            raise error
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "labels", np.require(labels, np.uint32, "CAW"))

    @property
    def n_trials(self):
        return self.trials.shape[0]


def _first_problem(kind, trials, labels, n_classes):
    """The first label, then value, then covariance trial that breaks
    the archive contract, as its message and the byte offset of that
    part counted from the first label byte; ``None`` when there is
    none."""
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if bad.size:
        i = int(bad[0])
        return f"label {labels[i]} out of range [0, {n_classes})", 4 * i
    payload = 4 * labels.size
    bad = np.flatnonzero(~np.isfinite(trials))
    if bad.size:
        i = int(bad[0])
        return f"payload value {i} is not finite", payload + 8 * i
    if kind == "covariance" and (
            bad := _first_not_spd(trials, "covariance trial")):
        return bad[1], payload + 8 * bad[0] * trials[0].size
    return None


def write_archive(archive, path):
    """Serialize an archive in the layout of ``docs/archive_format.md``."""
    code = _KIND_CODES[archive.kind]
    n_trials, rows, cols = archive.trials.shape
    dims = (rows, cols) if code == KIND_TIME_SERIES else (rows,)
    body = (_HEAD.pack(MAGIC, VERSION, code, n_trials, archive.n_classes)
            + _DIMS[code].pack(*dims) + archive.labels.astype("<u4").tobytes()
            + archive.trials.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(_U32.pack(zlib.crc32(body)))


def read_archive(path):
    """Read and validate a trial archive, running the checks of
    ``docs/archive_format.md`` in its order: the first violation raises
    :class:`UnsupportedFormat` (magic, version) or :class:`CorruptArchive`
    with its byte offset."""
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if blob[:4] != MAGIC:
        raise UnsupportedFormat(f"not a trial archive (magic "
                                f"{bytes(blob[:4])!r}, expected {MAGIC!r})")
    if len(blob) < 8:
        raise CorruptArchive("file truncated before version", offset=4)
    (version,) = _U32.unpack_from(blob, 4)
    if version != VERSION:
        raise UnsupportedFormat(
            f"unsupported archive version {version} (expected {VERSION})"
        )
    end = len(blob) - 4
    body = blob[:end]
    (stored_crc,) = _U32.unpack_from(blob, end)
    actual_crc = zlib.crc32(body)
    if stored_crc != actual_crc:
        raise CorruptArchive(
            f"checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}", offset=end,
        )

    if end < _HEAD.size:
        raise CorruptArchive("file truncated in the header", offset=end)
    _, _, code, n_trials, n_classes = _HEAD.unpack_from(blob)
    if code not in _DIMS:
        raise CorruptArchive(f"unknown kind byte {code}", offset=8)
    labels_at = _HEAD.size + _DIMS[code].size
    if end < labels_at:
        raise CorruptArchive("file truncated in the header", offset=end)
    dims = _DIMS[code].unpack_from(blob, _HEAD.size)
    counts = (n_trials, n_classes) + dims  # consecutive u32s from byte 9
    if 0 in counts:
        raise CorruptArchive("header holds a zero count or dimension",
                             offset=9 + 4 * counts.index(0))
    payload_at = labels_at + 4 * n_trials
    size = payload_at + 8 * n_trials * dims[0] * dims[-1]
    if size != end:
        raise CorruptArchive(
            f"header implies {size + 4} bytes, file holds {len(blob)}",
            offset=min(size, end),
        )

    labels = np.frombuffer(body, "<u4", n_trials, labels_at)
    trials = np.frombuffer(body, "<f8", offset=payload_at)
    try:
        return TrialArchive(_KIND_NAMES[code],
                            trials.reshape(n_trials, dims[0], dims[-1]),
                            labels, n_classes)
    except InvalidInput as error:  # the first bad label, value or trial
        offset = labels_at + error.offset
        raise CorruptArchive(str(error), offset=offset) from None
