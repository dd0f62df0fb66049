"""Multimodal column plumbing: opaque binary media + typed metadata.

Images/audio/video are `binary` columns; decode / resize /
frame-sample are actor-pool map_batches stages sized for large
payloads (small batch_size, pyarrow end to end). Codec calls sit behind
`DecoderBackend` with three implementations:

- `FakeDecoder` (oracle default): deterministic pseudo-metadata from a
  sha256 of the bytes, so the driver oracle can recompute every field.
- `HeaderProbeDecoder`: REAL pure-stdlib container-header parsing for
  PNG / GIF / BMP / JPEG (width, height, channels from the format
  headers — no pixel decode, no third-party deps), usable anywhere.
- `PilDecoder`: full pixel-level decode via PIL when it is installed
  (import-guarded; this container lacks it, so tests skipif).

`default_backend()` picks PilDecoder when PIL imports, FakeDecoder
otherwise — queries keep the fake explicitly so oracles stay exact.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media", pa.large_binary()),
        ("mime", pa.string()),
    ]
)


class DecoderBackend:
    def decode_one(self, data: bytes, mime: str) -> dict:
        raise NotImplementedError(
            "abstract decode backend; use FakeDecoder (deterministic, "
            "oracle-checkable), HeaderProbeDecoder (stdlib header parse), "
            "or PilDecoder (pixel decode, needs PIL installed)"
        )


def default_backend() -> "type[DecoderBackend]":
    """The backend class `decode_media` should use when the caller has
    no oracle-parity constraint: PilDecoder when PIL is importable,
    FakeDecoder otherwise. Returns the CLASS (map_batches constructs it
    once per actor)."""
    try:
        import PIL.Image  # noqa: F401

        return PilDecoder
    except ImportError:
        return FakeDecoder


class PilDecoder(DecoderBackend):
    """Real pixel-level decode via PIL (import-guarded — raises a clear
    ImportError at ACTOR CONSTRUCTION, not per batch, when PIL is
    absent). Emits the same field set as FakeDecoder so the two are
    drop-in interchangeable in `decode_media`."""

    _MODE_CHANNELS = {
        "1": 1, "L": 1, "P": 1, "I": 1, "F": 1,
        "LA": 2, "RGB": 3, "YCbCr": 3, "HSV": 3,
        "RGBA": 4, "CMYK": 4,
    }

    def __init__(self):
        import PIL.Image

        self._Image = PIL.Image

    def decode_one(self, data: bytes, mime: str) -> dict:
        import io

        with self._Image.open(io.BytesIO(data)) as im:
            im.load()  # force the full pixel decode (open() is lazy)
            return {
                "width": im.width,
                "height": im.height,
                "n_bytes": len(data),
                "channels": self._MODE_CHANNELS.get(im.mode, len(im.getbands())),
                "content_sha256": hashlib.sha256(data).hexdigest(),
            }


class HeaderProbeDecoder(DecoderBackend):
    """Real METADATA decode with zero dependencies: parses width /
    height / channels straight from the container headers of PNG, GIF,
    BMP and JPEG (the published format layouts) — the shape a 100-TB
    corpus scan actually wants, since probing a header reads tens of
    bytes per object while a pixel decode reads (and decompresses) all
    of them. Raises ValueError on unrecognized or truncated payloads
    (callers route those to the dead-letter path like any decode
    failure)."""

    _PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}

    def decode_one(self, data: bytes, mime: str) -> dict:
        import struct

        w = h = ch = None
        if data[:8] == b"\x89PNG\r\n\x1a\n" and len(data) >= 26:
            # IHDR is always the first chunk: length+type at 8, data at 16
            w, h = struct.unpack(">II", data[16:24])
            ch = self._PNG_CHANNELS.get(data[25], 3)
        elif data[:6] in (b"GIF87a", b"GIF89a") and len(data) >= 10:
            w, h = struct.unpack("<HH", data[6:10])
            ch = 3  # palette entries are RGB
        elif data[:2] == b"BM" and len(data) >= 18:
            # the DIB header size at 14 names the header layout
            dib = struct.unpack("<I", data[14:18])[0]
            bpp = None
            if dib == 12 and len(data) >= 26:
                # OS/2 BITMAPCOREHEADER: uint16 width/height at 18, bpp at 24
                w, h = struct.unpack("<HH", data[18:22])
                bpp = struct.unpack("<H", data[24:26])[0]
            elif dib >= 40 and len(data) >= 30:
                # BITMAPINFOHEADER (and its v4/v5 extensions): int32
                # width/height at 18, bpp at 28
                w, h = struct.unpack("<ii", data[18:26])
                h = abs(h)  # negative height = top-down row order
                bpp = struct.unpack("<H", data[28:30])[0]
            # any other header size below 40 is not a known layout
            if bpp is not None:
                ch = 4 if bpp == 32 else (3 if bpp == 24 else 1)
        elif data[:2] == b"\xff\xd8":
            # walk JPEG markers to the first frame header (SOFn)
            i = 2
            while i + 10 <= len(data):
                if data[i] != 0xFF:
                    i += 1
                    continue
                marker = data[i + 1]
                if marker == 0xFF:
                    # legal fill byte (JPEG B.1.1.2: any number of 0xFF
                    # may pad before a marker) — NOT a segment; skipping
                    # just one keeps the next 0xFF pair in frame
                    i += 1
                    continue
                if marker == 0xDA:
                    # SOS: entropy-coded data follows, where stuffed
                    # FF 00 pairs are not segments. A frame header must
                    # come before it; none did -> ValueError below
                    break
                if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
                    i += 2  # standalone markers carry no length
                    continue
                seglen = struct.unpack(">H", data[i + 2 : i + 4])[0]
                if 0xC0 <= marker <= 0xCF and marker not in (0xC4, 0xC8, 0xCC):
                    # i+10 <= len guaranteed by the loop guard, so the
                    # full h/w/channels read is in bounds (a truncated
                    # SOF falls out of the loop -> ValueError below)
                    h, w = struct.unpack(">HH", data[i + 5 : i + 9])
                    ch = data[i + 9]
                    break
                i += 2 + seglen
        if w is None:
            raise ValueError(
                f"unrecognized or truncated image payload ({len(data)} bytes, "
                f"mime={mime!r}); HeaderProbeDecoder handles PNG/GIF/BMP/JPEG"
            )
        return {
            "width": int(w),
            "height": int(h),
            "n_bytes": len(data),
            "channels": int(ch),
            "content_sha256": hashlib.sha256(data).hexdigest(),
        }


class FakeDecoder(DecoderBackend):
    """Deterministic stand-in: metadata derived from a sha256 of the
    payload (stable across runs/processes, and sha256 exists in DuckDB
    so the driver oracle can recompute every field), so tests can
    assert exact outputs."""

    def decode_one(self, data: bytes, mime: str) -> dict:
        h = hashlib.sha256(data).digest()
        w = 64 + int.from_bytes(h[0:2], "little") % 1984  # 64..2047
        hgt = 64 + int.from_bytes(h[2:4], "little") % 1984
        return {
            "width": w,
            "height": hgt,
            "n_bytes": len(data),
            "channels": 1 + h[4] % 4,
            "content_sha256": h.hex(),
        }


class _MediaMetadataStage:
    """Shared per-batch plumbing for payload->metadata stages: backend
    constructed ONCE per actor (the expensive model/codec load);
    per-batch loop is over rows by necessity (opaque per-item codec
    calls); payload dropped after metadata. Use small batch_size (e.g.
    64) so batch_bytes x concurrency fits worker heaps."""

    #: subclasses set: backend factory, per-item method name, out schema
    BACKEND = None
    METHOD = ""
    OUT_FIELDS: list = []

    def __init__(self, backend=None):
        self.backend = (backend or self.BACKEND)()

    def __call__(self, batch: pa.Table) -> pa.Table:
        fn = getattr(self.backend, self.METHOD)
        metas = [
            fn(d.as_py() if d is not None else b"", m)
            for d, m in zip(batch["media"], batch["mime"].to_pylist())
        ]
        for name, typ in self.OUT_FIELDS:
            batch = batch.append_column(name, pa.array([m[name] for m in metas], typ))
        return batch.drop_columns(["media"])  # metadata out, payload dropped


class MediaDecoder(_MediaMetadataStage):
    BACKEND = FakeDecoder
    METHOD = "decode_one"
    OUT_FIELDS = [
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("n_bytes", pa.int64()),
        ("channels", pa.int32()),
        ("content_sha256", pa.string()),
    ]


def decode_media(ds, backend: type[DecoderBackend] = FakeDecoder, concurrency: int = 4,
                 batch_size: int = 64):
    return ds.map_batches(
        MediaDecoder,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"backend": backend},
    )


class FakeResizer:
    """Resize plumbing (composes a FakeDecoder — it is not itself a
    decode backend): target box + aspect-preserving scale computed from
    the (fake-decoded) source dims; payload would be re-encoded by a
    real backend — here it is dropped after metadata, like decode."""

    def __init__(self, max_w: int = 512, max_h: int = 512):
        self.max_w = max_w
        self.max_h = max_h
        self.decoder = FakeDecoder()

    def resize_one(self, data: bytes, mime: str) -> dict:
        meta = self.decoder.decode_one(data, mime)
        scale = min(self.max_w / meta["width"], self.max_h / meta["height"], 1.0)
        return {
            "src_width": meta["width"],
            "src_height": meta["height"],
            # floor with a 1px floor: a real resizer never emits a
            # zero-dimension image, whatever the box
            "width": max(1, int(meta["width"] * scale)),
            "height": max(1, int(meta["height"] * scale)),
            "content_sha256": meta["content_sha256"],
        }


class MediaResizer(_MediaMetadataStage):
    METHOD = "resize_one"
    OUT_FIELDS = [
        ("src_width", pa.int32()),
        ("src_height", pa.int32()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("content_sha256", pa.string()),
    ]


def resize_media(ds, max_w: int = 512, max_h: int = 512, concurrency: int = 4,
                 batch_size: int = 64):
    """Actor-pool resize stage (backend built once per actor; small
    batches for large payloads — same plumbing as decode_media via
    _MediaMetadataStage)."""
    return ds.map_batches(
        MediaResizer,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"backend": lambda: FakeResizer(max_w, max_h)},
    )


def frame_count(data: bytes) -> int:
    """Deterministic fake frame count: 1 + sha256 bytes [5:7] % 300
    (a real backend reads the container header). SQL twin in
    queries.SQL_FRAME_SAMPLE."""
    h = hashlib.sha256(data).digest()
    return 1 + int.from_bytes(h[5:7], "little") % 300


def sample_frames(ds, every_n: int = 10, fps: float = 25.0, batch_size: int = 64):
    """Video frame-sampling plumbing: one input row fans out to one row
    per sampled frame (frame_idx stepping by ``every_n``), with the
    frame timestamp at ``fps``. The flat-map shape — output rows >>
    input rows — is the part a real decoder drops into; frame pixel
    extraction is the stubbed codec call."""

    def sample(batch: pa.Table) -> pa.Table:
        ids, idxs, ts = [], [], []
        for mid, d in zip(batch["media_id"].to_pylist(), batch["media"]):
            n = frame_count(d.as_py() if d is not None else b"")
            for f in range(0, n, every_n):
                ids.append(mid)
                idxs.append(f)
                ts.append(f / fps)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(idxs, pa.int32()),
                "frame_ts": pa.array(ts, pa.float64()),
            }
        )

    return ds.map_batches(sample, batch_format="pyarrow", batch_size=batch_size)
