"""URL canonicalization kernels for web-scale corpus curation.

A training-data pipeline over web crawls keys almost everything on URLs:
exact dedup of re-crawled pages, per-site quality statistics, domain-level
mixing weights, and blocklist filtering all require the *same* page to map
to the *same* key even though crawlers record it a dozen ways
(``HTTP://WWW.Example.COM:80/a/../b?utm_source=x&id=1#top`` vs
``http://www.example.com/b?id=1``).  The reference engine has no URL
surface (it is an OCR toolbox); these kernels are part of the
beyond-reference curation layer, with semantics from RFC 3986 §6
(syntax-based normalization) plus the crawl-dedup conventions used by
CommonCrawl-style pipelines:

- scheme and host lowercased (RFC 3986 §6.2.2.1);
- default ports stripped (``:80`` http, ``:443`` https — §6.2.3);
- dot-segments resolved (``/a/./b/../c`` -> ``/a/c`` — §5.2.4);
- percent-encodings of unreserved characters decoded, remaining escapes
  uppercased (``%7e`` -> ``~``, ``%3f`` -> ``%3F`` — §6.2.2.2);
- empty path -> ``/`` (§6.2.3);
- the fragment dropped (never sent to the server);
- tracking parameters removed (``utm_*``, ``gclid``, ``fbclid``, ``ref``)
  and the remaining query pairs sorted by key then value — not RFC
  normalization, but the standard crawl-dedup convention (two share-links
  of one page must collide);
- ``registered_domain`` reduces a host to its registrable suffix+1 using
  the REAL Public Suffix List algorithm (longest-match over exact /
  ``*.`` wildcard / ``!`` exception rules, implicit ``*`` default) over a
  checked-in snapshot of publicsuffix.org data
  (``my_ocr_ray/data/public_suffix_list.dat`` — curated subset; a full
  PSL drop-in replaces the file unchanged).

Scale shape: pure scalar functions over a batch column — no state, no
shuffle; callers run them inside ``map_batches`` and aggregate afterwards
on the (skinny) canonical key.
"""
from __future__ import annotations

import os
import re

import pyarrow as pa

# tracking params dropped during canonicalization (query-string noise that
# never changes page identity)
TRACKING_PARAMS = ("gclid", "fbclid", "msclkid", "ref")
_TRACKING_PREFIX = "utm_"

# --- Public Suffix List (publicsuffix.org algorithm over the checked-in
# snapshot). Parsed once per process at first use; the three rule classes
# are plain frozensets so a lookup is O(#labels) set probes, no trie needed
# (hot-path cost is ~3 probes/host inside map_batches).
_PSL_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data", "public_suffix_list.dat"
)
_PSL_RULES: tuple[frozenset, frozenset, frozenset] | None = None


def _load_psl() -> tuple[frozenset, frozenset, frozenset]:
    """(exact, wildcard-bases, exceptions) rule sets from the snapshot.

    A wildcard rule ``*.kobe.jp`` is stored as its base ``kobe.jp``; an
    exception ``!city.kobe.jp`` as ``city.kobe.jp``. ICANN vs PRIVATE
    section is irrelevant to matching, so the markers are just comments.
    """
    global _PSL_RULES
    if _PSL_RULES is None:
        exact, wild, exc = set(), set(), set()
        with open(_PSL_PATH, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("//"):
                    continue
                if line.startswith("!"):
                    exc.add(line[1:])
                elif line.startswith("*."):
                    wild.add(line[2:])
                else:
                    exact.add(line)
        _PSL_RULES = (frozenset(exact), frozenset(wild), frozenset(exc))
    return _PSL_RULES


def public_suffix(host: str) -> str:
    """The host's public suffix per the PSL algorithm: the longest matching
    rule wins; an exception rule beats wildcards and names the suffix one
    label SHORTER than itself; with no match the implicit ``*`` default
    makes the last label the suffix. Case and a trailing root dot are
    ignored."""
    exact, wild, exc = _load_psl()
    labels = host.lower().rstrip(".").split(".")
    # scan candidate suffixes longest-first so the first hit is the winner
    for i in range(len(labels)):
        cand = ".".join(labels[i:])
        if cand in exc:
            return ".".join(labels[i + 1 :])  # exception: suffix is its tail
        if cand in exact:
            return cand
        # "*.base" matches <label>.base — the wildcard consumes one label
        if i + 1 < len(labels) and ".".join(labels[i + 1 :]) in wild:
            return cand
    return labels[-1]

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://")
_DEFAULT_PORTS = {"http": ":80", "https": ":443"}

# RFC 3986 unreserved: ALPHA / DIGIT / "-" / "." / "_" / "~"
_UNRESERVED = frozenset(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_PCT_RE = re.compile(r"%(?![0-9A-Fa-f]{2})")


def _renorm_escapes(component: str) -> str:
    """Decode percent-escapes of unreserved chars; uppercase the rest.

    ``%41`` -> ``A`` but ``%2F`` stays ``%2F`` (decoding it would change
    the path structure).  Invalid escapes (``%zz``) are left verbatim.
    """
    if "%" not in component:
        return component
    if _PCT_RE.search(component):
        return component  # malformed escape: pass through untouched
    out = []
    parts = component.split("%")
    out.append(parts[0])
    for p in parts[1:]:
        byte = int(p[:2], 16)
        if byte in _UNRESERVED:
            out.append(chr(byte) + p[2:])
        else:
            out.append("%" + p[:2].upper() + p[2:])
    return "".join(out)


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 remove_dot_segments over a slash-split stack."""
    output: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if len(output) > 1:
                output.pop()
            continue
        output.append(seg)
    # preserve a trailing slash implied by a final "." / ".." segment
    if path.endswith(("/.", "/..")) and (not output or output[-1] != ""):
        output.append("")
    res = "/".join(output)
    if path.startswith("/") and not res.startswith("/"):
        res = "/" + res
    return res


def canonicalize_url(url: str) -> str:
    """Canonical form of one URL (see module docstring for the rules).

    Non-http(s) schemes get scheme/host lowercasing and fragment removal
    only (mailto:, ftp: — no authority conventions assumed).  Strings with
    no scheme are returned unchanged: the caller decides what a schemeless
    record means (relative link, garbage row), not the kernel.
    """
    m = _SCHEME_RE.match(url)
    if m is None:
        return url
    scheme = m.group(1).lower()
    rest = url[m.end() :]
    frag = rest.find("#")
    if frag >= 0:
        rest = rest[:frag]
    if scheme not in ("http", "https"):
        return f"{scheme}://{rest}"

    # split authority / path / query
    path_start = rest.find("/")
    q_start = rest.find("?")
    if q_start >= 0 and (path_start < 0 or q_start < path_start):
        path_start = q_start  # query directly after authority
    authority, tail = (
        (rest, "") if path_start < 0 else (rest[:path_start], rest[path_start:])
    )
    if "@" in authority:  # userinfo kept verbatim, host after it lowercased
        userinfo, _, hostport = authority.rpartition("@")
        userinfo += "@"
    else:
        userinfo, hostport = "", authority
    hostport = hostport.lower()
    default = _DEFAULT_PORTS[scheme]
    if hostport.endswith(default):
        hostport = hostport[: -len(default)]

    q_start = tail.find("?")
    path, query = (tail, "") if q_start < 0 else (tail[:q_start], tail[q_start + 1 :])
    path = _renorm_escapes(_remove_dot_segments(path)) or "/"

    canon = f"{scheme}://{userinfo}{hostport}{path}"
    if query:
        kept = []
        for pair in query.split("&"):
            if not pair:
                continue
            key = pair.split("=", 1)[0]
            if key.startswith(_TRACKING_PREFIX) or key in TRACKING_PARAMS:
                continue
            kept.append(_renorm_escapes(pair))
        if kept:
            kept.sort()
            canon += "?" + "&".join(kept)
    return canon


def url_host(url: str) -> str:
    """Lowercased host (no port, no userinfo) of an absolute URL; "" when
    the URL has no ``scheme://`` authority."""
    m = _SCHEME_RE.match(url)
    if m is None:
        return ""
    rest = url[m.end() :]
    for cut in "/?#":
        i = rest.find(cut)
        if i >= 0:
            rest = rest[:i]
    if "@" in rest:
        rest = rest.rpartition("@")[2]
    host = rest.lower()
    # strip :port (IPv6 literals keep their brackets)
    if host.startswith("["):
        end = host.find("]")
        return host[: end + 1] if end >= 0 else host
    return host.rpartition(":")[0] if ":" in host else host


def registered_domain(host: str) -> str:
    """suffix+1 registrable domain over the PSL snapshot:
    ``www.docs.example.com`` -> ``example.com``; ``a.b.co.uk`` ->
    ``b.co.uk``; ``foo.github.io`` -> ``foo.github.io`` (private-section
    suffix).  IPs and single-label hosts are returned unchanged, and a
    host that IS a public suffix (``co.uk``) comes back unchanged too —
    crawl keys must never be empty. The host is lowercased and a trailing
    root dot dropped first (``Example.COM.`` -> ``example.com``)."""
    if not host:
        return host
    host = host.lower().rstrip(".")
    if host.startswith("[") or host.replace(".", "").isdigit():
        return host
    labels = host.split(".")
    if len(labels) < 2:
        return host
    n_suffix = public_suffix(host).count(".") + 1
    if n_suffix >= len(labels):
        return host
    return ".".join(labels[-(n_suffix + 1) :])


def canonicalize_url_batch(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """Batch kernel: append ``canon_url``, ``host``, ``domain`` columns.

    Per-row Python over compiled regexes (URL grammar is too irregular for
    Arrow string kernels); linear scan, no state — at 100 TB this runs
    embarrassingly parallel inside ``map_batches`` and everything
    downstream exchanges only the skinny canonical keys.
    """
    urls = batch[url_col].to_pylist()
    canon = [canonicalize_url(u) if u is not None else None for u in urls]
    hosts = [url_host(c) if c is not None else None for c in canon]
    doms = [registered_domain(h) if h is not None else None for h in hosts]
    return (
        batch.append_column("canon_url", pa.array(canon, pa.string()))
        .append_column("host", pa.array(hosts, pa.string()))
        .append_column("domain", pa.array(doms, pa.string()))
    )
