"""URL canonicalization kernels (functions/url.py) — RFC 3986 §6 semantics
plus crawl-dedup conventions, and batch/query-twin parity."""
import pyarrow as pa
import pytest

from my_ocr_ray.functions.url import (
    canonicalize_url,
    canonicalize_url_batch,
    registered_domain,
    url_host,
)


class TestCanonicalize:
    def test_scheme_host_lowercased(self):
        assert (
            canonicalize_url("HTTP://WWW.Example.COM/Path")
            == "http://www.example.com/Path"
        )

    def test_default_ports_stripped(self):
        assert canonicalize_url("http://a.com:80/x") == "http://a.com/x"
        assert canonicalize_url("https://a.com:443/x") == "https://a.com/x"

    def test_nondefault_and_cross_scheme_ports_kept(self):
        assert canonicalize_url("http://a.com:8080/x") == "http://a.com:8080/x"
        # :443 is NOT default for http
        assert canonicalize_url("http://a.com:443/x") == "http://a.com:443/x"

    def test_dot_segments_resolved(self):
        assert canonicalize_url("http://a.com/a/./b/../c") == "http://a.com/a/c"
        assert canonicalize_url("http://a.com/a/b/..") == "http://a.com/a/"
        # leading root is never popped
        assert canonicalize_url("http://a.com/../x") == "http://a.com/x"

    def test_empty_path_becomes_slash(self):
        assert canonicalize_url("http://a.com") == "http://a.com/"
        assert canonicalize_url("http://a.com?q=1") == "http://a.com/?q=1"

    def test_fragment_dropped(self):
        assert canonicalize_url("http://a.com/x#top") == "http://a.com/x"

    def test_tracking_params_dropped_rest_sorted(self):
        assert (
            canonicalize_url(
                "http://a.com/x?utm_source=f&z=2&a=1&gclid=g&fbclid=h"
            )
            == "http://a.com/x?a=1&z=2"
        )

    def test_all_params_tracking_drops_query_entirely(self):
        assert canonicalize_url("http://a.com/x?utm_a=1&ref=r") == "http://a.com/x"

    def test_unreserved_escapes_decoded_others_uppercased(self):
        assert canonicalize_url("http://a.com/p%7Ex") == "http://a.com/p~x"
        assert canonicalize_url("http://a.com/p%2fx") == "http://a.com/p%2Fx"
        assert canonicalize_url("http://a.com/%41%42") == "http://a.com/AB"

    def test_malformed_escape_passthrough(self):
        assert canonicalize_url("http://a.com/p%zzq") == "http://a.com/p%zzq"

    def test_userinfo_kept_host_lowercased(self):
        assert (
            canonicalize_url("http://User:Pw@Host.COM/x")
            == "http://User:Pw@host.com/x"
        )

    def test_non_http_scheme_light_touch(self):
        assert canonicalize_url("MAILTO://A@B.com#f") == "mailto://A@B.com"

    def test_schemeless_returned_unchanged(self):
        assert canonicalize_url("/relative/path?x=1") == "/relative/path?x=1"
        assert canonicalize_url("not a url") == "not a url"

    def test_idempotent(self):
        u = "HTTP://A.com:80/a/./b/../c?utm_x=1&b=2&a=1#f"
        once = canonicalize_url(u)
        assert canonicalize_url(once) == once


class TestHostDomain:
    def test_host_strips_port_userinfo(self):
        assert url_host("http://u@WWW.A.com:8080/x?q#f") == "www.a.com"

    def test_host_ipv6_literal(self):
        assert url_host("http://[::1]:8080/x") == "[::1]"

    def test_host_schemeless_empty(self):
        assert url_host("/x") == ""

    def test_registered_domain_basic(self):
        assert registered_domain("www.docs.example.com") == "example.com"
        assert registered_domain("example.com") == "example.com"

    def test_registered_domain_two_level_suffix(self):
        assert registered_domain("a.b.co.uk") == "b.co.uk"
        assert registered_domain("shop.com.au") == "shop.com.au"

    def test_registered_domain_ip_and_single_label(self):
        assert registered_domain("192.168.0.1") == "192.168.0.1"
        assert registered_domain("localhost") == "localhost"
        assert registered_domain("") == ""

    def test_psl_multi_level_suffixes(self):
        # three-level ICANN rules from the snapshot
        assert registered_domain("www.example.k12.ca.us") == "example.k12.ca.us"
        assert registered_domain("shop.example.com.au") == "example.com.au"
        assert registered_domain("a.b.c.gov.uk") == "c.gov.uk"
        assert registered_domain("x.y.police.uk") == "y.police.uk"

    def test_psl_wildcard_rules(self):
        # *.sch.uk: every school is its own registrable domain
        assert registered_domain("www.st-marys.sch.uk") == "www.st-marys.sch.uk"
        assert (
            registered_domain("pupil.www.st-marys.sch.uk")
            == "www.st-marys.sch.uk"
        )
        # wildcard-only TLD *.bd
        assert registered_domain("example.com.bd") == "example.com.bd"
        assert registered_domain("www.example.com.bd") == "example.com.bd"

    def test_psl_exception_rules(self):
        # !www.ck punches through *.ck
        assert registered_domain("www.ck") == "www.ck"
        assert registered_domain("foo.www.ck") == "www.ck"
        assert registered_domain("shop.other.ck") == "shop.other.ck"
        # jp designated-city wildcards with the !city.* exceptions
        assert registered_domain("city.kobe.jp") == "city.kobe.jp"
        assert registered_domain("ward.city.kobe.jp") == "city.kobe.jp"
        assert registered_domain("a.b.kobe.jp") == "a.b.kobe.jp"

    def test_psl_private_section(self):
        assert registered_domain("user.github.io") == "user.github.io"
        assert registered_domain("a.user.github.io") == "user.github.io"
        assert registered_domain("myapp.herokuapp.com") == "myapp.herokuapp.com"
        assert (
            registered_domain("vm.us-east-1.compute.amazonaws.com")
            == "vm.us-east-1.compute.amazonaws.com"
        )
        assert registered_domain("blog.blogspot.co.uk") == "blog.blogspot.co.uk"

    def test_psl_suffix_itself_unchanged(self):
        # a host that IS a public suffix must not collapse to ""
        assert registered_domain("co.uk") == "co.uk"
        assert registered_domain("github.io") == "github.io"
        # unknown TLD falls through to the implicit '*' default rule
        assert registered_domain("www.example.unknowntld") == "example.unknowntld"

    def test_public_suffix_direct(self):
        from my_ocr_ray.functions.url import public_suffix

        assert public_suffix("www.example.co.uk") == "co.uk"
        assert public_suffix("foo.city.kobe.jp") == "kobe.jp"
        assert public_suffix("x.anything.kobe.jp") == "anything.kobe.jp"
        assert public_suffix("example.zz") == "zz"

    def test_case_and_trailing_dot_normalized(self):
        from my_ocr_ray.functions.url import public_suffix

        assert registered_domain("Example.CO.UK") == registered_domain("example.co.uk")
        assert registered_domain("example.co.uk") == "example.co.uk"
        assert registered_domain("example.com.") == registered_domain("example.com")
        assert registered_domain("WWW.Example.com.") == "example.com"
        assert public_suffix("Shop.Example.CO.UK.") == "co.uk"


class TestBatch:
    def test_batch_appends_columns_and_handles_null(self):
        t = pa.table(
            {
                "doc_id": [1, 2],
                "url": ["HTTP://A.com:80/x/../y?utm_s=1&b=2#f", None],
            }
        )
        out = canonicalize_url_batch(t)
        assert out.column_names == ["doc_id", "url", "canon_url", "host", "domain"]
        assert out["canon_url"].to_pylist() == ["http://a.com/y?b=2", None]
        assert out["host"].to_pylist() == ["a.com", None]
        assert out["domain"].to_pylist() == ["a.com", None]


class TestSynthOracleParity:
    """The Ray query's generative model and the DuckDB oracle's expected
    canonical string must agree — checked here in pure Python for a sweep
    of (doc_id, source) so an oracle edit can't silently drift."""

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 5, 6, 9, 10, 15, 29, 30, 44])
    def test_expected_canonical(self, i):
        src = "Web_news"
        scheme = "https" if i % 2 else "http"
        if i % 5 == 0:
            rawport, canonport = ":8080", ":8080"
        elif i % 3 == 0:
            rawport, canonport = (":443" if i % 2 else ":80"), ""
        else:
            rawport, canonport = "", ""
        url = (
            f"{scheme}://WWW.Docs.{src}.COM{rawport}"
            f"/a/{i % 7}/./x/../p%7E{i}.html"
            f"?utm_source=feed&z={i % 3}&a=1&gclid=g{i}#sec{i}"
        )
        expect = (
            f"{scheme}://www.docs.{src.lower()}.com{canonport}"
            f"/a/{i % 7}/p~{i}.html?a=1&z={i % 3}"
        )
        got = canonicalize_url(url)
        assert got == expect
        assert url_host(got) == f"www.docs.{src.lower()}.com"
        assert registered_domain(url_host(got)) == f"{src.lower()}.com"
