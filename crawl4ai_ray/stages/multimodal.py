"""Multimodal plumbing: media columns as opaque binary + typed metadata.

Three decoder tiers: ``HeaderProbeDecoder`` is REAL and dependency-free
(container-header parsing — PNG/GIF/BMP/JPEG/WAV dimensions and sample
counts from bytes); ``RealDecoder`` is the gated PIL/ffmpeg pixel-decode
slot (libs not in this container → NotImplementedError); and
``DeterministicFakeDecoder`` gives md5-derived metadata the DuckDB oracle
can recompute.  Everything Ray-side is real and tested: schema (binary
payload column + struct metadata), the callable-class stage signature
(decoder built once in ``__init__``), small-batch sizing for wide binary
rows, and the output layout.  The package passes stage instances, which Ray
Data runs as tasks; a deployment whose decoder loads a real model can pass
the class instead and get an actor pool that loads it once per actor.

Mirrors the reference's media model (MediaItem {src, data, alt, desc, score,
type, format, width}, /root/reference/crawl4ai/models.py:343-352) with the
payload lifted into a first-class binary column.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("kind", pa.string()),  # image | video | audio
        pa.field("payload", pa.binary()),
        pa.field("meta", pa.struct([
            pa.field("width", pa.int32()),
            pa.field("height", pa.int32()),
            pa.field("format", pa.string()),
            pa.field("n_frames", pa.int32()),
        ])),
    ]
)


def spans_to_media_rows(batch: pa.Table) -> pa.Table:
    """docs(spans) → media table rows (one per media span); payload left
    empty (filled by a fetch/decode stage downstream)."""
    doc_ids = batch.column("doc_id").to_pylist()
    spans_col = batch.column("spans").to_pylist()
    out = {"doc_id": [], "media_ref": [], "kind": []}
    for doc_id, spans in zip(doc_ids, spans_col):
        for s in spans or []:
            if s["kind"] != "text":
                out["doc_id"].append(doc_id)
                out["media_ref"].append(s["media_ref"])
                out["kind"].append(s["kind"])
    n = len(out["doc_id"])
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], type=pa.string()),
            "media_ref": pa.array(out["media_ref"], type=pa.string()),
            "kind": pa.array(out["kind"], type=pa.string()),
            "payload": pa.array([b""] * n, type=pa.binary()),
            "meta": pa.array(
                [{"width": 0, "height": 0, "format": "", "n_frames": 0}] * n,
                type=MEDIA_SCHEMA.field("meta").type,
            ),
        }
    )


def pil_available() -> bool:
    """True when PIL/Pillow is importable (absent in this container)."""
    try:
        import PIL.Image  # noqa: F401

        return True
    except ImportError:
        return False


class PilDecoder:
    """REAL pixel decoder backed by PIL — availability-selected (as the
    lxml parser backend is): ``select_decoder_factory`` activates this
    tier automatically when Pillow is importable and falls back to
    HeaderProbeDecoder otherwise.  Image kinds open through PIL (true
    pixel-level dimensions, format, n_frames for animated containers);
    non-image kinds and undecodable payloads fall back to the header
    probe, so the stage never raises mid-batch.

    ``image_module`` injects a stand-in for tests (this container has no
    Pillow); production leaves it None and imports PIL.Image once per
    actor (__init__ = per-actor model-load slot)."""

    def __init__(self, image_module=None):
        if image_module is None:
            import PIL.Image as image_module  # noqa: N813 (per-actor, once)
        self._image = image_module
        self._probe = HeaderProbeDecoder()

    def decode(self, payload: bytes, kind: str) -> dict:
        if kind != "image" or not payload:
            return self._probe.decode(payload, kind)
        import io

        try:
            img = self._image.open(io.BytesIO(payload))
            return {
                "width": int(img.size[0]),
                "height": int(img.size[1]),
                "format": (img.format or "").lower(),
                "n_frames": int(getattr(img, "n_frames", 1)),
            }
        except Exception:
            return self._probe.decode(payload, kind)


def select_decoder_factory():
    """Best REAL decoder for this environment: PIL pixel decode when
    Pillow is importable, header probing otherwise.  Pass the result as
    ``MediaDecodeStage(decoder_factory=...)``."""
    return PilDecoder if pil_available() else HeaderProbeDecoder


class RealDecoder:
    """Hard-require tier: the PIL-backed decoder or an ImportError-shaped
    failure — for deployments that must not silently degrade to header
    probing.  Prefer ``select_decoder_factory()`` for the availability-
    selected behavior."""

    def __init__(self):
        if not pil_available():
            raise NotImplementedError(
                "pixel decode requires Pillow, which is not installed in "
                "this sandbox; use select_decoder_factory() (availability-"
                "selected), HeaderProbeDecoder (metadata) or "
                "DeterministicFakeDecoder (tests)"
            )
        self._inner = PilDecoder()

    def decode(self, payload: bytes, kind: str) -> dict:
        return self._inner.decode(payload, kind)


class HeaderProbeDecoder:
    """REAL dependency-free media metadata extraction by parsing container
    headers — PNG IHDR, GIF logical screen descriptor, BMP info header,
    JPEG SOFn segment scan, WAV RIFF fmt/data chunks.  This is the
    header-sniff stage a 100-TB pipeline runs before (or instead of) any
    pixel decode: dimensions / sample counts without touching payload
    bodies.  Unknown containers yield format '' and zeros (never raises).

    Reference parity note: the reference records MediaItem.width from HTML
    attributes only (models.py:343-352); byte-level probing is our
    extension for payload-bearing corpora."""

    def decode(self, payload: bytes, kind: str) -> dict:
        import struct

        p = payload or b""
        meta = {"width": 0, "height": 0, "format": "", "n_frames": 1}
        try:
            if p[:8] == b"\x89PNG\r\n\x1a\n" and p[12:16] == b"IHDR":
                w, h = struct.unpack(">II", p[16:24])
                meta.update(width=w, height=h, format="png")
            elif p[:6] in (b"GIF87a", b"GIF89a"):
                w, h = struct.unpack("<HH", p[6:10])
                # frame count = image-descriptor separators (0x2C at a
                # block boundary is hard without full LZW parsing; the
                # screen descriptor is authoritative for dimensions)
                meta.update(width=w, height=h, format="gif")
            elif p[:2] == b"BM" and len(p) >= 26:
                w, h = struct.unpack("<ii", p[18:26])
                meta.update(width=w, height=abs(h), format="bmp")
            elif p[:2] == b"\xff\xd8":
                meta.update(format="jpg")
                i = 2
                while i + 9 < len(p):
                    if p[i] != 0xFF:
                        break
                    # spec allows any number of 0xFF fill bytes before a marker
                    while p[i + 1] == 0xFF and i + 9 < len(p):
                        i += 1
                    marker = p[i + 1]
                    if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
                        i += 2
                        continue
                    seg_len = struct.unpack(">H", p[i + 2 : i + 4])[0]
                    # SOF0-SOF15 minus DHT(C4)/DNL(C8)/DAC(CC)
                    if 0xC0 <= marker <= 0xCF and marker not in (0xC4, 0xC8, 0xCC):
                        h, w = struct.unpack(">HH", p[i + 5 : i + 9])
                        meta.update(width=w, height=h)
                        break
                    i += 2 + seg_len
            elif p[:4] == b"RIFF" and p[8:12] == b"WAVE":
                i = 12
                block_align = 0
                while i + 8 <= len(p):
                    cid = p[i : i + 4]
                    clen = struct.unpack("<I", p[i + 4 : i + 8])[0]
                    if cid == b"fmt " and i + 22 <= len(p):
                        block_align = struct.unpack("<H", p[i + 20 : i + 22])[0]
                        meta.update(format="wav")
                    elif cid == b"data" and block_align:
                        # n_frames = audio sample frames in the data chunk
                        meta.update(n_frames=clen // block_align)
                    i += 8 + clen + (clen & 1)  # chunks are word-aligned
        except (struct.error, IndexError):
            pass
        return meta


class DeterministicFakeDecoder:
    """Deterministic stand-in: metadata derived from md5(payload) so tests
    AND the DuckDB oracle can recompute exact outputs (md5 is the hash both
    sides share; see ORACLE_SQL['media_catalog'])."""

    def decode(self, payload: bytes, kind: str) -> dict:
        h = hashlib.md5(payload).hexdigest()
        return {
            "width": 64 + int(h[0:2], 16),
            "height": 64 + int(h[2:4], 16),
            "format": {"image": "jpg", "video": "mp4", "audio": "mp3"}.get(kind, ""),
            "n_frames": 1 + int(h[4:6], 16) if kind == "video" else 1,
        }


class MediaDecodeStage:
    """map_batches stage: decoder constructed ONCE in __init__
    (model-load pattern); per batch fills the meta struct from payloads.

    Use small batch_size (wide binary rows): e.g.
    ``ds.map_batches(MediaDecodeStage(), batch_size=16)``.
    """

    def __init__(self, decoder_factory=DeterministicFakeDecoder, synth_payload: bool = True):
        self.decoder = decoder_factory()
        self.synth_payload = synth_payload

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        metas = []
        out_payloads = []
        for ref, kind, payload in zip(refs, kinds, payloads):
            if not payload and self.synth_payload:
                # synthetic payload derived from the ref (sandbox: no network);
                # ascii hex so the SQL oracle can rebuild it as md5(ref)
                payload = hashlib.md5(ref.encode()).hexdigest().encode()
            out_payloads.append(payload)
            metas.append(self.decoder.decode(payload, kind))
        out = batch.drop_columns(["payload", "meta"])
        out = out.append_column("payload", pa.array(out_payloads, type=pa.binary()))
        out = out.append_column(
            "meta", pa.array(metas, type=MEDIA_SCHEMA.field("meta").type)
        )
        return out


class DeterministicFakeResizer:
    """Aspect-preserving metadata resize; payload re-keyed by the target
    size so downstream dedup sees the variant as a distinct object."""

    def resize(self, payload: bytes, meta: dict, max_side: int) -> tuple[bytes, dict]:
        w, h = meta["width"], meta["height"]
        scale = min(1.0, max_side / max(w, h, 1))
        new = dict(meta, width=int(w * scale), height=int(h * scale))
        out_payload = hashlib.md5(payload + str(max_side).encode()).hexdigest().encode()
        return out_payload, new


class MediaResizeStage:
    """map_batches stage: bounded-resolution variant of every image row
    (resizer built once in __init__; pass-through for non-images).
    Real deployments swap ``resizer_factory`` for a PIL/libvips resizer —
    the Ray plumbing (schema in = schema out, small batches for wide binary
    rows) is what's tested here."""

    def __init__(self, max_side: int = 512, resizer_factory=DeterministicFakeResizer):
        self.max_side = max_side
        self.resizer = resizer_factory()

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        metas = batch.column("meta").to_pylist()
        out_p, out_m = [], []
        for kind, payload, meta in zip(kinds, payloads, metas):
            if kind == "image":
                p, m = self.resizer.resize(payload, meta, self.max_side)
            else:
                p, m = payload, meta
            out_p.append(p)
            out_m.append(m)
        out = batch.drop_columns(["payload", "meta"])
        out = out.append_column("payload", pa.array(out_p, type=pa.binary()))
        return out.append_column(
            "meta", pa.array(out_m, type=MEDIA_SCHEMA.field("meta").type)
        )


class FrameSampleStage:
    """Flat-map stage: video rows → one row per sampled frame
    (uniform stride over n_frames, ≤ ``max_frames``); non-video rows pass
    through untouched.  A real deployment decodes frames with ffmpeg in the
    same slot; here frame payloads derive deterministically from
    (payload, frame_idx)."""

    def __init__(self, max_frames: int = 4):
        self.max_frames = max_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {k: [] for k in ("doc_id", "media_ref", "kind", "payload", "meta")}
        for row in batch.to_pylist():
            if row["kind"] != "video":
                for k in out:
                    out[k].append(row[k])
                continue
            n = max(1, row["meta"]["n_frames"])
            take = min(self.max_frames, n)
            stride = n // take
            for j in range(take):
                fi = j * stride
                frame_meta = dict(row["meta"], format="jpg", n_frames=1)
                out["doc_id"].append(row["doc_id"])
                out["media_ref"].append(f"{row['media_ref']}#frame{fi}")
                out["kind"].append("image")
                out["payload"].append(
                    hashlib.md5(row["payload"] + str(fi).encode()).hexdigest().encode()
                )
                out["meta"].append(frame_meta)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], type=pa.string()),
                "media_ref": pa.array(out["media_ref"], type=pa.string()),
                "kind": pa.array(out["kind"], type=pa.string()),
                "payload": pa.array(out["payload"], type=pa.binary()),
                "meta": pa.array(out["meta"], type=MEDIA_SCHEMA.field("meta").type),
            }
        )
