"""Transport hardening: malformed requests, size limits, redirect
loops, access control edge cases.

A public PowerPlay server faces arbitrary bytes, not just well-behaved
Netscape sessions; every probe here must come back as a clean 4xx/5xx
HTML page — never a traceback, never a hung client.
"""

import http.client
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import RemoteError, SessionError
from repro.web.client import Browser
from repro.web.server import PowerPlayServer, host_allowed
from repro.web.session import validate_username


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    state = tmp_path_factory.mktemp("hardening_state")
    with PowerPlayServer(state) as live:
        yield live


def _raw_post(server, headers, body=b""):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=5)
    try:
        connection.putrequest("POST", "/login")
        for key, value in headers.items():
            connection.putheader(key, value)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8", "replace")
    finally:
        connection.close()


class TestMalformedPosts:
    def test_non_integer_content_length_is_400(self, server):
        status, body = _raw_post(server, {"Content-Length": "banana"})
        assert status == 400
        assert "Content-Length" in body
        assert "Traceback" not in body

    def test_header_echoed_into_error_page_is_escaped(self, server):
        status, body = _raw_post(
            server, {"Content-Length": "<script>alert(1)</script>"}
        )
        assert status == 400
        assert "&lt;script&gt;" in body
        assert "<script>" not in body

    def test_negative_content_length_is_400(self, server):
        status, body = _raw_post(server, {"Content-Length": "-5"})
        assert status == 400

    def test_missing_content_length_means_empty_form(self, server):
        # an empty login form is a routine 400 from the app, not a crash
        status, body = _raw_post(server, {})
        assert status == 400
        assert "Traceback" not in body

    def test_non_utf8_body_is_400(self, server):
        raw = b"\xff\xfe\xfauser=evil"
        status, body = _raw_post(
            server,
            {
                "Content-Length": str(len(raw)),
                "Content-Type": "application/x-www-form-urlencoded",
            },
            raw,
        )
        assert status == 400
        assert "UTF-8" in body

    def test_oversized_body_is_413_without_reading_it(self, server):
        # the header alone triggers the refusal; no 100MB transfer needed
        status, body = _raw_post(
            server, {"Content-Length": str(100 * 1024 * 1024)}
        )
        assert status == 413
        assert "limit" in body

    def test_configurable_limit(self, tmp_path):
        with PowerPlayServer(tmp_path / "tiny", max_body_bytes=16) as tiny:
            raw = b"user=" + b"a" * 64
            status, _ = _raw_post(
                tiny,
                {
                    "Content-Length": str(len(raw)),
                    "Content-Type": "application/x-www-form-urlencoded",
                },
                raw,
            )
            assert status == 413
            # and a small form still works
            page = Browser(tiny.base_url).login("ok")
            assert page.status == 200


class _Exploding:
    """An application whose handler is a bug."""

    def handle(self, method, path, form=None):
        raise RuntimeError("secret internal detail")


class TestNoTracebackLeaks:
    def test_unexpected_exception_yields_500_html(self, tmp_path):
        with PowerPlayServer(tmp_path / "s", application=_Exploding()) as server:
            browser = Browser(server.base_url)
            page = browser.get("/anything")
            assert page.status == 500
            assert "500" in page.body
            assert "<html>" in page.body
            # the bug's details must not reach the client
            assert "secret internal detail" not in page.body
            assert "Traceback" not in page.body
            assert "RuntimeError" not in page.body

    def test_application_level_catchall(self, tmp_path, monkeypatch):
        # a buggy route handler inside Application must still produce a
        # page, even for transports that call handle() directly
        from repro.web.app import Application

        app = Application(tmp_path / "s")

        def boom(data):
            raise RuntimeError("route bug detail")

        monkeypatch.setattr(app, "_menu", boom)
        response = app.handle("GET", "/menu?user=someone")
        assert response.status == 500
        assert "route bug detail" not in response.body
        assert "Traceback" not in response.body
        assert "<html>" in response.body


class TestDrain:
    def test_accepted_request_counts_before_its_thread_runs(self, tmp_path):
        # Thread.start() can return before the request thread runs its
        # first line; a drain in that window must still see the request
        with PowerPlayServer(tmp_path / "s") as server:
            httpd = server._httpd
            parked, release = threading.Event(), threading.Event()
            run = httpd.process_request_thread

            def parked_thread(request, client_address):
                parked.set()
                release.wait(5)
                run(request, client_address)

            httpd.process_request_thread = parked_thread
            answer = {}

            def fetch():
                host, port = server.address
                connection = http.client.HTTPConnection(host, port, timeout=5)
                try:
                    connection.request("GET", "/api/ping")
                    response = connection.getresponse()
                    answer["status"] = response.status
                    answer["length"] = int(
                        response.getheader("Content-Length"))
                    answer["body"] = response.read()
                finally:
                    connection.close()

            client = threading.Thread(target=fetch)
            client.start()
            try:
                assert parked.wait(5)
                assert httpd.drain(0.2) is False
                assert httpd.inflight == 1
            finally:
                release.set()
                client.join(5)
            assert answer["status"] == 200
            assert len(answer["body"]) == answer["length"] > 0
            assert httpd.drain(2.0) is True


class _RedirectMaze(BaseHTTPRequestHandler):
    """/loop redirects to itself; /hop/N redirects down to /hop/0."""

    def log_message(self, *args):  # noqa: A002
        pass

    def do_GET(self):  # noqa: N802
        if self.path.startswith("/hop/"):
            n = int(self.path.rsplit("/", 1)[-1])
            if n == 0:
                body = b"<html><title>made it</title></html>"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            location = f"/hop/{n - 1}"
        else:
            location = "/loop"
        self.send_response(302)
        self.send_header("Location", location)
        self.send_header("Content-Length", "0")
        self.end_headers()


@pytest.fixture
def maze():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _RedirectMaze)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    thread.join(timeout=5)
    httpd.server_close()


class TestRedirectCap:
    def test_redirect_loop_raises_instead_of_hanging(self, maze):
        browser = Browser(maze, timeout=5)
        with pytest.raises(RemoteError, match="redirect loop"):
            browser.get("/loop")

    def test_five_hops_still_followed(self, maze):
        browser = Browser(maze, timeout=5)
        page = browser.get("/hop/5")
        assert page.status == 200
        assert page.title == "made it"

    def test_six_hops_is_too_many(self, maze):
        browser = Browser(maze, timeout=5)
        with pytest.raises(RemoteError, match="redirect loop"):
            browser.get("/hop/6")


class TestHostAllowed:
    def test_none_means_open(self):
        assert host_allowed("203.0.113.9", None)

    def test_empty_list_is_lockdown(self):
        assert not host_allowed("127.0.0.1", [])
        assert not host_allowed("::1", [])

    def test_literal_match(self):
        assert host_allowed("10.0.0.7", ["10.0.0.7"])
        assert not host_allowed("10.0.0.8", ["10.0.0.7"])

    def test_cidr_match(self):
        assert host_allowed("10.0.0.200", ["10.0.0.0/24"])
        assert not host_allowed("10.0.1.1", ["10.0.0.0/24"])

    def test_ipv6_literal(self):
        assert host_allowed("::1", ["::1"])
        assert host_allowed(
            "2001:db8::1", ["2001:0db8:0000:0000:0000:0000:0000:0001"]
        )
        assert not host_allowed("::2", ["::1"])

    def test_ipv6_network(self):
        assert host_allowed("2001:db8:dead::beef", ["2001:db8::/32"])
        assert not host_allowed("2001:db9::1", ["2001:db8::/32"])

    def test_mixed_families_do_not_crash(self):
        # an IPv6 client against IPv4 entries (and vice versa) is a
        # clean no-match, not a TypeError
        assert not host_allowed("::1", ["10.0.0.0/24", "10.0.0.7"])
        assert host_allowed("::1", ["10.0.0.0/24", "::1"])
        assert not host_allowed("10.0.0.7", ["2001:db8::/32"])

    @pytest.mark.parametrize(
        "entry",
        ["10.0.0.0/99", "banana", "banana/8", "", "/24", "10.0.0.256"],
    )
    def test_malformed_entries_are_skipped_not_fatal(self, entry):
        assert not host_allowed("10.0.0.7", [entry])
        # a malformed entry must not mask a later valid one
        assert host_allowed("10.0.0.7", [entry, "10.0.0.7"])

    def test_malformed_client_address_is_denied(self):
        assert not host_allowed("not-an-ip", ["10.0.0.0/8"])
        assert not host_allowed("", ["10.0.0.0/8"])


class TestUsernameRejectionPaths:
    @pytest.mark.parametrize(
        "bad",
        [
            "alice\n",          # trailing newline ($ would accept it!)
            "alice\r",
            "alice\x00",
            ".hidden",          # must start with a letter
            "-dash",
            "_under",
            "über",             # ASCII letters only — becomes a filename
            "名前",
            "a" * 33,           # too long
            " alice",
            "alice ",
            "al ice",
            "a\tb",
            "CON/PRN",
            "..",
            "a..b/../c",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(SessionError, match="invalid username"):
            validate_username(bad)

    def test_boundary_lengths(self):
        assert validate_username("a") == "a"
        assert validate_username("a" * 32) == "a" * 32
        with pytest.raises(SessionError):
            validate_username("a" * 33)

    def test_non_strings_rejected(self):
        for bad in (None, 42, b"alice", ["a"]):
            with pytest.raises(SessionError):
                validate_username(bad)
