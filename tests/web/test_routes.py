"""The route table: one declaration drives dispatch, 405s and labels.

Every ``(method, path)`` in :data:`repro.web.app.ROUTES` must dispatch;
the other of GET/POST on a method-restricted path must answer ``405``
with an ``Allow`` header naming the declared methods; unknown paths stay
``404`` and share the ``(unmatched)`` metric label.
"""

import http.client

import pytest

from repro.web.app import DOC_CELL, ROUTES, Application, route_label
from repro.web.server import PowerPlayServer

USER = "router"


def _concrete(path):
    return "/doc/cell/sram" if path == DOC_CELL else path


def _declared(path):
    return sorted(method for method, declared in ROUTES if declared == path)


#: (method, path) pairs the table declares; ``None`` means GET and POST
DECLARED = sorted(
    {
        (method, path)
        for declared, path in ROUTES
        for method in ((declared,) if declared else ("GET", "POST"))
    }
)

#: (wrong method, path, Allow) for every method-restricted path
WRONG = sorted(
    {
        (other, path, ", ".join(_declared(path)))
        for declared, path in ROUTES
        if declared is not None
        for other in ("GET", "POST")
        if other not in _declared(path)
    }
)


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    application = Application(tmp_path_factory.mktemp("routes"))
    application.handle("POST", "/login", {"user": USER})
    return application


def test_every_handler_exists():
    for name in ROUTES.values():
        assert callable(getattr(Application, name)), name


def test_wrong_methods_are_exercised():
    # GET /login and GET /api/registry/publish answered 404 before the
    # table; they are the motivating cases
    assert ("GET", "/login", "POST") in WRONG
    assert ("GET", "/api/registry/publish", "POST") in WRONG
    assert ("POST", "/design/analysis", "GET") in WRONG


@pytest.mark.parametrize("method,path", DECLARED)
def test_declared_method_never_405(app, method, path):
    response = app.handle(method, f"{_concrete(path)}?user={USER}")
    assert response.status != 405
    assert "Allow" not in response.headers


@pytest.mark.parametrize("method,path,allow", WRONG)
def test_other_method_is_405_with_allow(app, method, path, allow):
    response = app.handle(method, f"{path}?user={USER}")
    assert response.status == 405
    assert response.headers["Allow"] == allow
    assert allow in response.body


def test_unknown_path_is_404_and_unmatched(app):
    for method in ("GET", "POST"):
        response = app.handle(method, "/no/such/route")
        assert response.status == 404
        assert "Allow" not in response.headers
    assert route_label("/no/such/route") == "(unmatched)"


def test_doc_cell_pattern_label():
    assert route_label("/doc/cell/x") == DOC_CELL == "/doc/cell/:name"


def test_every_label_is_a_declared_path():
    for _method, path in ROUTES:
        assert route_label(_concrete(path)) == path


def test_405_over_http(tmp_path):
    with PowerPlayServer(tmp_path / "http") as server:
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.request("GET", "/login")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
    assert response.status == 405
    assert response.getheader("Allow") == "POST"
