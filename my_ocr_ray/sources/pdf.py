"""PDF layout-parsing source — real pure-stdlib decoder for a minimal
PDF 1.4 profile, plus the Ray-side task stage.

The target scope includes PDF layout parsing. This container has no PDF
library, so the decoder is a from-scratch stdlib parser (``zlib`` for
FlateDecode) covering exactly the profile the engine's own generator
(:func:`synth_pdf`) and any equally simple producer emits:

- classic cross-reference PDFs (``N 0 obj`` ... ``endobj``), direct
  ``/Length`` values, ``/Filter /FlateDecode`` or uncompressed streams;
- page trees of ``/Type /Pages`` + ``/Type /Page`` with ``/MediaBox``;
- content streams using ``q Q cm BT ET Tf Td TD Tm T* TL Tj TJ`` and
  ``Do`` on image XObjects, with axis-aligned matrices;
- Type1 ``/Courier`` text metrics (fixed 0.6 em advance), the one base-14
  font with width-table-free geometry.

Anything outside that profile (encryption, object streams, other filters,
non-Courier fonts, rotated matrices, exotic operators) raises
``NotImplementedError`` — the honest seam where a pdfium/poppler decoder
would plug in for arbitrary wild PDFs.

Blocks are emitted in TOP-DOWN page coordinates (y flipped from PDF's
y-up user space) so :func:`my_ocr_ray.functions.geometry.layout_reading_order`
(which assumes image-style y-down rows) applies directly.

Output rows mirror the span model: one row per layout block, ordered by
``layout_reading_order`` (column-aware reading order).
"""
from __future__ import annotations

import re
import zlib

import pyarrow as pa

from ..functions.geometry import layout_reading_order

PDF_BLOCK_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("page", pa.int32()),
        ("order", pa.int32()),        # reading-order index within the page
        ("kind", pa.string()),        # "text" | "image"
        ("text", pa.string()),
        ("bbox", pa.list_(pa.float32())),  # [x0, y0, x1, y1] top-down page coords
    ]
)

# ---------------------------------------------------------------------------
# minimal PDF object model + lexer
# ---------------------------------------------------------------------------

_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"
# one compiled pattern per lexical class: the char-at-a-time loops were
# ~20% of per-PDF decode CPU (cProfile, 0.94 ms/pdf); regex scanning at C
# speed over the same grammar cut decode to ~0.6 ms/pdf with identical
# token streams
_WSC_RE = re.compile(rb"(?:[\x00\t\n\x0c\r ]+|%[^\r\n]*)+")
_NAME_RE = re.compile(rb"/([^\x00\t\n\x0c\r ()<>\[\]{}/%]*)")
_PLAIN_RE = re.compile(rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]+")


class _Ref:
    __slots__ = ("num",)

    def __init__(self, num: int):
        self.num = num

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<ref {self.num}>"


class _Name(str):
    """PDF /Name (distinct from strings)."""


class _Lexer:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def _skip_ws(self) -> None:
        m = _WSC_RE.match(self.data, self.pos)
        if m:
            self.pos = m.end()

    def peek_token(self):
        pos = self.pos
        tok = self.next_token()
        self.pos = pos
        return tok

    def next_token(self):
        """One lexical token: bytes keyword/number/name markers, or tuple
        ('str', bytes) for literal strings."""
        d = self.data
        m = _WSC_RE.match(d, self.pos)
        if m:
            self.pos = m.end()
        if self.pos >= len(d):
            return None
        c = d[self.pos]
        if c == 0x2F:  # '/' name
            m = _NAME_RE.match(d, self.pos)
            self.pos = m.end()
            return _Name(m.group(1).decode("latin-1"))
        if c == 0x3C:  # '<<' dict-open or '<' hex string
            if d.startswith(b"<<", self.pos):
                self.pos += 2
                return b"<<"
            j = d.index(b">", self.pos)
            h = re.sub(rb"\s", b"", d[self.pos + 1 : j])
            self.pos = j + 1
            return ("str", bytes.fromhex(h.decode("ascii")))
        if c == 0x3E:  # '>>' dict-close ('>' alone is malformed)
            if d.startswith(b">>", self.pos):
                self.pos += 2
                return b">>"
            raise NotImplementedError("unexpected '>' outside dict close")
        if c in b"[]":
            self.pos += 1
            return d[self.pos - 1 : self.pos]
        if c == 0x28:  # '(' literal string
            return ("str", self._lex_string())
        m = _PLAIN_RE.match(d, self.pos)
        if m is None:  # lone delimiter ({, }, ')'): emit as its own token
            self.pos += 1
            return d[self.pos - 1 : self.pos]
        self.pos = m.end()
        return m.group(0)

    def _lex_string(self) -> bytes:
        d, n = self.data, len(self.data)
        assert d[self.pos] == 0x28
        self.pos += 1
        out = bytearray()
        depth = 1
        while self.pos < n:
            c = d[self.pos]
            if c == 0x5C:  # backslash escape
                e = d[self.pos + 1]
                self.pos += 2
                if e in b"nrtbf":
                    out.append({0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12}[e])
                elif e in b"()\\":
                    out.append(e)
                elif 0x30 <= e <= 0x37:  # octal \ddd (1-3 digits)
                    oct_s = bytes([e])
                    while (
                        len(oct_s) < 3
                        and self.pos < n
                        and 0x30 <= d[self.pos] <= 0x37
                    ):
                        oct_s += d[self.pos : self.pos + 1]
                        self.pos += 1
                    out.append(int(oct_s, 8) & 0xFF)
                elif e in b"\r\n":  # line continuation
                    if e == 0x0D and self.pos < n and d[self.pos] == 0x0A:
                        self.pos += 1
                else:
                    out.append(e)
            elif c == 0x28:
                depth += 1
                out.append(c)
                self.pos += 1
            elif c == 0x29:
                depth -= 1
                self.pos += 1
                if depth == 0:
                    return bytes(out)
                out.append(c)
            else:
                out.append(c)
                self.pos += 1
        raise NotImplementedError("unterminated PDF string")


_NUM_RE = re.compile(rb"^[+-]?(\d+\.?\d*|\.\d+)$")


def _parse_value(lex: _Lexer):
    """Recursive-descent PDF object parser (dicts, arrays, names, numbers,
    strings, refs, booleans, null)."""
    tok = lex.next_token()
    return _parse_from_token(lex, tok)


def _parse_from_token(lex: _Lexer, tok):
    if tok is None:
        raise NotImplementedError("unexpected EOF in PDF object")
    if isinstance(tok, tuple) and tok[0] == "str":
        return tok[1]
    if isinstance(tok, _Name):
        return tok
    if tok == b"<<":
        d: dict = {}
        while True:
            k = lex.next_token()
            if k == b">>":
                return d
            if not isinstance(k, _Name):
                raise NotImplementedError(f"bad dict key {k!r}")
            d[str(k)] = _parse_value(lex)
    if tok == b"[":
        arr = []
        while True:
            t = lex.peek_token()
            if t == b"]":
                lex.next_token()
                return arr
            arr.append(_parse_value(lex))
    if tok == b"true":
        return True
    if tok == b"false":
        return False
    if tok == b"null":
        return None
    if _NUM_RE.match(tok):
        # possible indirect reference: INT INT R
        if b"." not in tok:
            save = lex.pos
            t2 = lex.next_token()
            if (
                isinstance(t2, bytes)
                and not isinstance(t2, _Name)
                and _NUM_RE.match(t2)
                and b"." not in t2
            ):
                t3 = lex.next_token()
                if t3 == b"R":
                    return _Ref(int(tok))
            lex.pos = save
            return int(tok)
        return float(tok)
    raise NotImplementedError(f"unsupported PDF token {tok!r}")


_OBJ_HDR_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")


def _parse_objects(data: bytes) -> dict[int, tuple]:
    """Sequentially parse every ``N G obj ... endobj`` into
    ``{num: (value, stream_bytes | None)}``. Streams are consumed by their
    direct /Length so binary payloads can't be mistaken for markers."""
    objs: dict[int, tuple] = {}
    pos = 0
    while True:
        m = _OBJ_HDR_RE.search(data, pos)
        if not m:
            break
        num = int(m.group(1))
        lex = _Lexer(data, m.end())
        val = _parse_value(lex)
        stream = None
        lex._skip_ws()
        if data.startswith(b"stream", lex.pos):
            if not isinstance(val, dict):
                raise NotImplementedError("stream without dict")
            length = val.get("Length")
            if isinstance(length, _Ref):
                raise NotImplementedError("indirect /Length not supported")
            p = lex.pos + len(b"stream")
            if data.startswith(b"\r\n", p):
                p += 2
            elif data.startswith(b"\n", p):
                p += 1
            stream = data[p : p + int(length)]
            lex.pos = p + int(length)
            lex._skip_ws()
            if not data.startswith(b"endstream", lex.pos):
                raise NotImplementedError("stream /Length mismatch")
            lex.pos += len(b"endstream")
        lex._skip_ws()
        if not data.startswith(b"endobj", lex.pos):
            raise NotImplementedError("missing endobj")
        objs[num] = (val, stream)
        pos = lex.pos + len(b"endobj")
    return objs


def _decode_stream(d: dict, raw: bytes) -> bytes:
    filt = d.get("Filter")
    if filt is None:
        return raw
    filts = filt if isinstance(filt, list) else [filt]
    out = raw
    for f in filts:
        if str(f) == "FlateDecode":
            out = zlib.decompress(out)
        else:
            raise NotImplementedError(f"unsupported stream filter /{f}")
    return out


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

_COURIER_EM = 0.6  # fixed advance of every base-14 Courier glyph (600/1000)


class PdfDecoder:
    """bytes -> list of pages, each a list of blocks ``{"kind", "text",
    "bbox"}`` in TOP-DOWN page coordinates.

    Pure-stdlib parser for the minimal PDF 1.4 profile documented in the
    module docstring; raises ``NotImplementedError`` outside it (the seam
    where a pdfium/poppler decoder plugs in for wild PDFs).
    """

    def decode(self, data: bytes) -> list[list[dict]]:
        if not data.startswith(b"%PDF-"):
            raise NotImplementedError("not a PDF (missing %PDF- header)")
        objs = _parse_objects(data)

        def deref(v):
            if isinstance(v, _Ref):
                if v.num not in objs:
                    raise NotImplementedError(f"dangling object ref {v.num}")
                return objs[v.num][0]
            return v

        catalog = None
        for val, _ in objs.values():
            if isinstance(val, dict) and str(val.get("Type")) == "Catalog":
                catalog = val
                break
        if catalog is None:
            raise NotImplementedError("no /Type /Catalog object")

        pages: list[dict] = []

        def walk(node):
            node = deref(node)
            t = str(node.get("Type"))
            if t == "Pages":
                for kid in node.get("Kids", []):
                    walk(kid)
            elif t == "Page":
                pages.append(node)
            else:
                raise NotImplementedError(f"unexpected page-tree node /{t}")

        walk(catalog["Pages"])

        out = []
        for page in pages:
            media = [float(v) for v in deref(page.get("MediaBox", [0, 0, 612, 792]))]
            height = media[3] - media[1]
            res = deref(page.get("Resources", {})) or {}
            fonts = {k: deref(v) for k, v in deref(res.get("Font", {})).items()}
            xobjects = {
                k: v for k, v in deref(res.get("XObject", {})).items()
            }
            contents = page.get("Contents")
            chunks = contents if isinstance(contents, list) else [contents]
            # multiple /Contents chunks concatenate with implied whitespace
            body = b"\n".join(
                _decode_stream(deref(c), objs[c.num][1])
                if isinstance(c, _Ref)
                else b""
                for c in chunks
                if c is not None
            )
            out.append(
                self._run_content(body, height, fonts, xobjects, objs, deref)
            )
        return out

    def _run_content(
        self, body: bytes, height: float, fonts, xobjects, objs, deref
    ) -> list[dict]:
        blocks: list[dict] = []
        lex = _Lexer(body)
        stack: list = []           # operand stack
        ctm = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        gs_stack: list[tuple] = []
        tm = tlm = None            # text matrices, set inside BT/ET
        size = 0.0
        leading = 0.0

        def mat_mul(m, n):  # m x n, row-vector convention [a b 0; c d 0; e f 1]
            a1, b1, c1, d1, e1, f1 = m
            a2, b2, c2, d2, e2, f2 = n
            return (
                a1 * a2 + b1 * c2,
                a1 * b2 + b1 * d2,
                c1 * a2 + d1 * c2,
                c1 * b2 + d1 * d2,
                e1 * a2 + f1 * c2 + e2,
                e1 * b2 + f1 * d2 + f2,
            )

        def device_xy(m):
            full = mat_mul(m, ctm)
            if full[1] != 0.0 or full[2] != 0.0 or full[0] <= 0 or full[3] <= 0:
                raise NotImplementedError("rotated/flipped matrices unsupported")
            return full

        def emit_text(text: str, width_em: float):
            nonlocal tm
            full = device_xy(tm)
            x0, y_base = full[4], full[5]
            glyph_h = size * full[3]
            w = width_em * full[0]
            if text:
                blocks.append(
                    {
                        "kind": "text",
                        "text": text,
                        "bbox": [
                            x0,
                            height - (y_base + glyph_h),
                            x0 + w,
                            height - y_base,
                        ],
                    }
                )
            tm = mat_mul((1, 0, 0, 1, width_em, 0), tm)

        while True:
            tok = lex.next_token()
            if tok is None:
                break
            if isinstance(tok, tuple) or isinstance(tok, _Name):
                stack.append(tok[1] if isinstance(tok, tuple) else tok)
                continue
            if tok in (b"<<", b"["):
                stack.append(_parse_from_token(lex, tok))
                continue
            if _NUM_RE.match(tok):
                stack.append(float(tok) if b"." in tok else int(tok))
                continue
            op = tok.decode("latin-1")
            if op == "q":
                gs_stack.append(ctm)
            elif op == "Q":
                ctm = gs_stack.pop() if gs_stack else ctm
            elif op == "cm":
                ctm = mat_mul(tuple(float(v) for v in stack[-6:]), ctm)
            elif op == "BT":
                tm = tlm = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
            elif op == "ET":
                tm = tlm = None
            elif op == "Tf":
                fname, size = str(stack[-2]), float(stack[-1])
                font = fonts.get(fname)
                if font is None:
                    raise NotImplementedError(f"undefined font /{fname}")
                if str(deref(font).get("BaseFont")) != "Courier":
                    raise NotImplementedError(
                        "only /Courier metrics supported (fixed 0.6 em)"
                    )
            elif op == "TL":
                leading = float(stack[-1])
            elif op in ("Td", "TD"):
                tx, ty = float(stack[-2]), float(stack[-1])
                if op == "TD":
                    leading = -ty
                tlm = mat_mul((1, 0, 0, 1, tx, ty), tlm)
                tm = tlm
            elif op == "Tm":
                tlm = tm = tuple(float(v) for v in stack[-6:])
            elif op == "T*":
                tlm = mat_mul((1, 0, 0, 1, 0, -leading), tlm)
                tm = tlm
            elif op == "Tj":
                s = stack[-1].decode("latin-1")
                emit_text(s, _COURIER_EM * size * len(s))
            elif op == "TJ":
                parts = stack[-1]
                text, width = "", 0.0
                for p in parts:
                    if isinstance(p, bytes):
                        text += p.decode("latin-1")
                        width += _COURIER_EM * size * len(p)
                    else:
                        width -= float(p) / 1000.0 * size
                emit_text(text, width)
            elif op == "Do":
                name = str(stack[-1])
                xo = xobjects.get(name)
                if xo is None:
                    raise NotImplementedError(f"undefined XObject /{name}")
                xd = deref(xo)
                if str(xd.get("Subtype")) != "Image":
                    raise NotImplementedError("only image XObjects supported")
                if ctm[1] != 0.0 or ctm[2] != 0.0 or ctm[0] <= 0 or ctm[3] <= 0:
                    raise NotImplementedError("rotated image placement")
                x0, y0 = ctm[4], ctm[5]
                x1, y1 = ctm[0] + ctm[4], ctm[3] + ctm[5]
                blocks.append(
                    {
                        "kind": "image",
                        "text": "",
                        "bbox": [x0, height - y1, x1, height - y0],
                    }
                )
            elif op in ("n", "W"):
                pass  # clipping no-ops: no painted geometry
            else:
                raise NotImplementedError(f"unsupported content operator {op!r}")
            if op not in ("q", "Q", "BT", "ET", "T*", "n", "W"):
                stack.clear()
        return blocks


class FakePdfDecoder(PdfDecoder):
    """Deterministic fake for tests: 'pdf' bytes are a JSON page list."""

    def decode(self, data: bytes) -> list[list[dict]]:
        import json

        return json.loads(data.decode("utf-8"))


# ---------------------------------------------------------------------------
# generator (synthetic fixture producer for the same profile)
# ---------------------------------------------------------------------------

PAGE_W, PAGE_H = 612, 792
PDF_X0, PDF_Y_TOP, PDF_LEADING, PDF_FONT_SIZE = 72, 720, 16, 12
PDF_LINE_TOKENS, PDF_PAGE_LINES = 6, 12
PDF_IMG_BOX = (72, 40, 64, 48)  # x, y (PDF up), w, h


def pdf_lines(text: str) -> list[str]:
    """Deterministic line layout: chunks of PDF_LINE_TOKENS whitespace
    tokens (the SQL-expressible contract shared with the q_pdf_layout
    oracle)."""
    toks = text.split()
    return [
        " ".join(toks[i : i + PDF_LINE_TOKENS])
        for i in range(0, len(toks), PDF_LINE_TOKENS)
    ]


def _esc(s: str) -> bytes:
    return (
        s.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)")
    ).encode("latin-1", errors="replace")


def synth_pdf(doc_id: int, text: str) -> bytes:
    """Genuine minimal PDF 1.4 bytes for a document: Courier text lines in
    Flate-compressed content streams (first line of each page shown via TJ,
    the rest via Tj), PDF_PAGE_LINES lines per page, plus — for even
    doc_ids — a FlateDecode grayscale image XObject at the bottom of page
    one. Pure function of (doc_id, text); emits a valid xref + trailer."""
    lines = pdf_lines(text)
    page_lines = [
        lines[i : i + PDF_PAGE_LINES] for i in range(0, len(lines), PDF_PAGE_LINES)
    ] or [[]]
    with_img = int(doc_id) % 2 == 0
    n_pages = len(page_lines)

    # object numbering: 1 catalog, 2 pages, 3 font, 4 image (optional),
    # then (page, content) pairs
    base = 5 if with_img else 4
    page_nums = [base + 2 * p for p in range(n_pages)]
    objs: dict[int, bytes] = {}
    kids = " ".join(f"{n} 0 R" for n in page_nums)
    objs[1] = b"<< /Type /Catalog /Pages 2 0 R >>"
    objs[2] = (
        f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>".encode()
    )
    objs[3] = b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>"
    if with_img:
        iw, ih = 8, 6
        pix = bytes((int(doc_id) + i) % 256 for i in range(iw * ih))
        comp = zlib.compress(pix)
        objs[4] = (
            b"<< /Type /XObject /Subtype /Image /Width 8 /Height 6 "
            b"/ColorSpace /DeviceGray /BitsPerComponent 8 "
            b"/Filter /FlateDecode /Length %d >>\nstream\n%s\nendstream"
            % (len(comp), comp)
        )

    for p, plines in enumerate(page_lines):
        parts = []
        if plines:
            parts.append(b"BT /F1 %d Tf" % PDF_FONT_SIZE)
            for j, line in enumerate(plines):
                if j == 0:
                    m = len(line) // 2
                    parts.append(
                        b"%d %d Td [(%s) (%s)] TJ"
                        % (PDF_X0, PDF_Y_TOP, _esc(line[:m]), _esc(line[m:]))
                    )
                else:
                    parts.append(b"0 -%d Td (%s) Tj" % (PDF_LEADING, _esc(line)))
            parts.append(b"ET")
        if with_img and p == 0:
            x, y, w, h = PDF_IMG_BOX
            parts.append(b"q %d 0 0 %d %d %d cm /Im0 Do Q" % (w, h, x, y))
        content = zlib.compress(b"\n".join(parts))
        res = b"<< /Font << /F1 3 0 R >>"
        if with_img:
            res += b" /XObject << /Im0 4 0 R >>"
        res += b" >>"
        objs[page_nums[p]] = (
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 %d %d] "
            b"/Resources %s /Contents %d 0 R >>"
            % (PAGE_W, PAGE_H, res, page_nums[p] + 1)
        )
        objs[page_nums[p] + 1] = (
            b"<< /Length %d /Filter /FlateDecode >>\nstream\n%s\nendstream"
            % (len(content), content)
        )

    buf = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets = {}
    for num in sorted(objs):
        offsets[num] = len(buf)
        buf += b"%d 0 obj\n%s\nendobj\n" % (num, objs[num])
    xref_at = len(buf)
    maxn = max(objs)
    buf += b"xref\n0 %d\n" % (maxn + 1)
    buf += b"0000000000 65535 f \n"
    for num in range(1, maxn + 1):
        buf += b"%010d 00000 n \n" % offsets.get(num, 0)
    buf += (
        b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n"
        % (maxn + 1, xref_at)
    )
    return bytes(buf)


def pdf_pages_text(pages: list[list[dict]]) -> str:
    """Reading-ordered TEXT content of decoded pages: per page, blocks are
    ordered by ``layout_reading_order`` and the text blocks' lines joined
    with newlines; image blocks contribute nothing. This is the flagship's
    pdf-span reduction (north star: "PDF layout parsing, emitting
    per-document ordered span sequences")."""
    lines: list[str] = []
    for blocks in pages:
        quads = [
            [b["bbox"][0], b["bbox"][1], b["bbox"][2], b["bbox"][1],
             b["bbox"][2], b["bbox"][3], b["bbox"][0], b["bbox"][3]]
            for b in blocks
        ]
        for bi in layout_reading_order(quads):
            b = blocks[bi]
            if b.get("kind", "text") == "text" and b.get("text"):
                lines.append(b["text"])
    return "\n".join(lines)


class PdfLayoutStage:
    """Task stage: (doc_id, bytes) -> ordered layout-block rows.

    Use with ``map_batches(PdfLayoutStage(decoder), batch_size=B)``: the
    instance holds only its decoder, which builds no per-process state, so
    Ray Data runs it as tasks.
    """

    def __init__(self, decoder: PdfDecoder | None = None):
        self.decoder = decoder or PdfDecoder()

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = {k.name: [] for k in PDF_BLOCK_SCHEMA}
        for doc_id, data in zip(
            batch["doc_id"].to_pylist(), batch["bytes"].to_pylist()
        ):
            pages = self.decoder.decode(data)
            for pg, blocks in enumerate(pages):
                quads = [
                    [b["bbox"][0], b["bbox"][1], b["bbox"][2], b["bbox"][1],
                     b["bbox"][2], b["bbox"][3], b["bbox"][0], b["bbox"][3]]
                    for b in blocks
                ]
                for order, bi in enumerate(layout_reading_order(quads)):
                    b = blocks[bi]
                    rows["doc_id"].append(doc_id)
                    rows["page"].append(pg)
                    rows["order"].append(order)
                    rows["kind"].append(b.get("kind", "text"))
                    rows["text"].append(b.get("text", ""))
                    rows["bbox"].append([float(v) for v in b["bbox"]])
        return pa.Table.from_pydict(rows, schema=PDF_BLOCK_SCHEMA)
