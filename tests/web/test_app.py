"""The web application, driven in-process (no sockets)."""

import json

import pytest

from repro.web.app import Application

USER = "lidsky"
#: the paragraph a page shows a form error in
ERROR = '<p class="error">'


@pytest.fixture
def app(tmp_path):
    application = Application(tmp_path / "state")
    response = application.handle("POST", "/login", {"user": USER})
    assert response.status == 303
    return application


def get(app, path):
    return app.handle("GET", path)


def post(app, path, **form):
    return app.handle("POST", path, form)


class TestLogin:
    def test_front_page(self, app):
        response = get(app, "/")
        assert response.status == 200
        assert "identify" in response.body

    def test_login_redirects_to_menu(self, app):
        response = post(app, "/login", user="newbie")
        assert response.status == 303
        assert response.headers["Location"] == "/menu?user=newbie"

    def test_bad_username_rejected(self, app):
        response = post(app, "/login", user="../etc")
        assert response.status == 400

    def test_menu_lists_libraries_designs_examples(self, app):
        response = get(app, f"/menu?user={USER}")
        assert "ucb_lowpower" in response.body
        assert "system_components" in response.body
        assert "luminance_fig3" in response.body


class TestLibraryAndCell:
    def test_library_page(self, app):
        response = get(app, f"/library?user={USER}")
        assert "multiplier" in response.body
        assert "sram" in response.body

    def test_single_library_filter(self, app):
        response = get(app, f"/library?user={USER}&library=system_components")
        assert "radio" in response.body
        assert "ucb_lowpower" not in response.body
        assert get(app, f"/library?user={USER}&library=ghost").status == 400

    def test_cell_form_shows_parameters(self, app):
        response = get(app, f"/cell?user={USER}&name=multiplier")
        assert "bitwidthA" in response.body
        assert "p:VDD" in response.body  # supply field injected
        assert "/doc/cell/multiplier" in response.body

    def test_unknown_cell(self, app):
        assert get(app, f"/cell?user={USER}&name=ghost").status == 400

    def test_compute_shows_figure4_result(self, app):
        response = post(
            app, "/cell",
            user=USER, name="multiplier",
            **{"p:bitwidthA": "16", "p:bitwidthB": "16",
               "p:VDD": "1.5", "p:f": "2M"},
        )
        assert "Result" in response.body
        assert "2.9146e-04 W" in response.body      # the EQ 20 anchor
        assert "Effective capacitance" in response.body
        assert "64.77 pF" in response.body          # 16*16*253fF

    def test_compute_remembers_defaults(self, app):
        post(
            app, "/cell",
            user=USER, name="multiplier",
            **{"p:bitwidthA": "24", "p:VDD": "1.5", "p:f": "2M",
               "p:bitwidthB": "24"},
        )
        response = get(app, f"/cell?user={USER}&name=multiplier")
        assert 'value="24.0"' in response.body

    def test_compute_error_shown_on_form(self, app):
        response = post(
            app, "/cell",
            user=USER, name="multiplier",
            **{"p:bitwidthA": "0", "p:bitwidthB": "16",
               "p:VDD": "1.5", "p:f": "2M"},
        )
        assert response.status == 200
        assert "error" in response.body


class TestDesigns:
    def make_design(self, app, name="demo"):
        assert post(app, "/design/new", user=USER, name=name).status == 303

    def test_new_design(self, app):
        self.make_design(app)
        response = get(app, f"/design?user={USER}&name=demo")
        assert "demo summary" in response.body

    def test_duplicate_design_name(self, app):
        self.make_design(app)
        assert post(app, "/design/new", user=USER, name="demo").status == 400

    def test_empty_design_name(self, app):
        assert post(app, "/design/new", user=USER, name="  ").status == 400

    def save_multiplier(self, app, row="mult16"):
        return post(
            app, "/cell/save",
            user=USER, name="multiplier", design="demo", row=row,
            **{"p:bitwidthA": "16", "p:bitwidthB": "16",
               "p:VDD": "1.5", "p:f": "2M"},
        )

    def test_save_to_design_and_sheet(self, app):
        self.make_design(app)
        assert self.save_multiplier(app).status == 303
        response = get(app, f"/design?user={USER}&name=demo")
        assert "mult16" in response.body
        assert "2.9146e-04 W" in response.body
        assert "100.0%" in response.body

    def test_duplicate_row_rejected(self, app):
        self.make_design(app)
        self.save_multiplier(app)
        assert self.save_multiplier(app).status == 400

    def test_play_updates_parameters(self, app):
        self.make_design(app)
        self.save_multiplier(app)
        response = post(
            app, "/design",
            user=USER, name="demo", **{"p:mult16:VDD": "1.0"},
        )
        assert "1.2954e-04 W" in response.body

    def test_play_with_bad_value_reports_error(self, app):
        self.make_design(app)
        self.save_multiplier(app)
        response = post(
            app, "/design",
            user=USER, name="demo", **{"p:mult16:bitwidthA": "-3"},
        )
        assert "error" in response.body

    def test_unknown_design(self, app):
        assert get(app, f"/design?user={USER}&name=ghost").status == 400


class TestExamples:
    def load(self, app, example):
        return post(app, "/design/load_example", user=USER, example=example)

    def test_load_infopad_and_navigate(self, app):
        assert self.load(app, "infopad").status == 303
        top = get(app, f"/design?user={USER}&name=infopad")
        assert "custom_hardware" in top.body
        assert "voltage_converters" in top.body
        sub = get(
            app, f"/design?user={USER}&name=infopad&path=custom_hardware"
        )
        assert "luminance_chip" in sub.body
        leaf = get(
            app,
            f"/design?user={USER}&name=infopad"
            "&path=custom_hardware/luminance_chip",
        )
        assert "read_bank" in leaf.body

    def test_example_names_deduplicated(self, app):
        self.load(app, "luminance_fig1")
        self.load(app, "luminance_fig1")
        menu = get(app, f"/menu?user={USER}")
        assert "luminance_fig1_1" in menu.body

    def test_unknown_example(self, app):
        assert self.load(app, "warp_core").status == 400

    def test_path_through_non_subdesign(self, app):
        self.load(app, "luminance_fig1")
        response = get(
            app, f"/design?user={USER}&name=luminance_fig1&path=lut"
        )
        assert response.status == 400

    def test_play_on_subdesign_page(self, app):
        self.load(app, "infopad")
        response = app.handle(
            "POST", "/design",
            {"user": USER, "name": "infopad", "path": "custom_hardware",
             "g:VDD2": "0.9"},
        )
        # VDD2 isn't local to custom_hardware; setting it there shadows.
        assert response.status == 200


class TestAtomicPlay:
    """A PLAY applies every edit or none, and a failed one saves nothing."""

    @pytest.fixture
    def saves(self, app):
        counted = []
        original = app.users.save_session

        def counting(session):
            counted.append(session.username)
            original(session)

        app.users.save_session = counting
        return counted

    def play(self, app, name, **edits):
        return app.handle("POST", "/design", {"user": USER, "name": name,
                                              **edits})

    def test_scope_edits_all_or_none(self, app, saves):
        post(app, "/design/load_example", user=USER, example="infopad")
        session = app.users.session(USER)
        before = app.users.read_disk(USER)
        vdd1 = session.design("infopad").scope.raw("VDD1")
        saves.clear()
        response = self.play(app, "infopad",
                             **{"g:VDD1": "9.9", "g:VDD2": "(("})
        assert response.status == 200
        assert ERROR in response.body
        assert session.design("infopad").scope.raw("VDD1") == vdd1
        assert saves == []
        assert app.users.read_disk(USER) == before

    def test_row_edits_all_or_none(self, app, saves):
        TestDesigns().make_design(app)
        TestDesigns().save_multiplier(app)
        row = app.users.session(USER).design("demo").row("mult16")
        local = row.scope.local_values()
        before = app.users.read_disk(USER)
        saves.clear()
        response = self.play(app, "demo", **{"p:mult16:VDD": "1.0",
                                             "p:mult16:bitwidthA": "-3"})
        assert ERROR in response.body
        assert row.scope.local_values() == local
        assert saves == []
        assert app.users.read_disk(USER) == before

    def test_unknown_row_undoes_earlier_scope_edit(self, app, saves):
        TestDesigns().make_design(app)
        design = app.users.session(USER).design("demo")
        before = app.users.read_disk(USER)
        saves.clear()
        response = self.play(app, "demo", **{"g:VDD": "3.3",
                                             "p:ghost:VDD": "1.0"})
        assert ERROR in response.body
        assert design.scope.raw("VDD") == 1.5
        assert saves == []
        assert app.users.read_disk(USER) == before

    def test_new_names_are_removed_again(self, app, saves):
        TestDesigns().make_design(app)
        design = app.users.session(USER).design("demo")
        local = design.scope.local_values()
        response = self.play(app, "demo", **{"g:k": "2", "g:VDD": "(("})
        assert ERROR in response.body
        assert design.scope.local_values() == local
        assert list(design.scope.local_values()) == list(local)

    def test_successful_play_saves_every_edit(self, app, saves):
        TestDesigns().make_design(app)
        TestDesigns().save_multiplier(app)
        saves.clear()
        response = self.play(app, "demo", **{"g:f": "4M",
                                             "p:mult16:VDD": "1.0"})
        assert ERROR not in response.body
        assert saves == [USER]
        disk = json.loads(app.users.read_disk(USER))
        assert disk == app.users.session(USER).to_payload()
        assert app.users.session(USER).design("demo").row(
            "mult16").scope.raw("VDD") == 1.0


class TestDefineModel:
    def define(self, app, **over):
        fields = dict(
            user=USER, name="fir_filter",
            equation="taps * 12f * VDD^2 * f",
            parameters="taps=64", doc="FIR", category="computation",
            proprietary="no",
        )
        fields.update(over)
        return post(app, "/define", **fields)

    def test_define_and_use(self, app):
        response = self.define(app)
        assert "fir_filter" in response.body and "created" in response.body
        form = get(app, f"/cell?user={USER}&name=fir_filter")
        assert "taps" in form.body
        computed = post(
            app, "/cell", user=USER, name="fir_filter",
            **{"p:taps": "64", "p:VDD": "1.5", "p:f": "2M"},
        )
        assert "Result" in computed.body

    def test_bad_equation_rejected_on_form(self, app):
        response = self.define(app, equation="taps * oops(")
        assert "error" in response.body

    def test_equation_with_unknown_name_rejected(self, app):
        response = self.define(app, equation="bogus_name * 2")
        assert "error" in response.body

    def test_duplicate_name_rejected(self, app):
        self.define(app)
        response = self.define(app)
        assert "already defined" in response.body

    def test_bad_parameter_spec(self, app):
        response = self.define(app, parameters="taps")
        assert "error" in response.body

    def test_persisted_across_restart(self, app, tmp_path):
        self.define(app)
        fresh = Application(tmp_path / "state")
        response = fresh.handle("GET", f"/cell?user={USER}&name=fir_filter")
        assert response.status == 200

    def test_proprietary_model_not_in_api(self, app):
        self.define(app, proprietary="yes")
        # user still sees it
        assert get(app, f"/cell?user={USER}&name=fir_filter").status == 200
        # but it is not shared (user library is not in the public API at all)
        response = get(app, "/api/model?name=fir_filter")
        assert response.status == 400


class TestAPI:
    def test_ping(self, app):
        payload = json.loads(get(app, "/api/ping").body)
        assert payload["protocol"] == "powerplay/1"

    def test_library_json(self, app):
        payload = json.loads(get(app, "/api/library.json").body)
        assert payload["format"] == "powerplay-library/1"
        names = {entry["name"] for entry in payload["entries"]}
        assert {"multiplier", "sram", "radio"} <= names

    def test_model_json(self, app):
        payload = json.loads(get(app, "/api/model?name=sram").body)
        assert payload["name"] == "sram"
        assert payload["power"]["kind"] == "template"

    def test_unknown_model(self, app):
        assert get(app, "/api/model?name=ghost").status == 400

    def test_design_export(self, app):
        post(app, "/design/load_example", user=USER, example="luminance_fig3")
        response = get(app, f"/export/design?user={USER}&name=luminance_fig3")
        payload = json.loads(response.body)
        assert payload["format"] == "powerplay-design/1"
        names = [row["name"] for row in payload["rows"]]
        assert "lut" in names

    def test_export_library(self, app):
        response = get(app, "/export/library?library=ucb_lowpower")
        assert json.loads(response.body)["name"] == "ucb_lowpower"
        assert get(app, "/export/library?library=ghost").status == 400


class TestDocsAndMisc:
    def test_doc_page(self, app):
        response = get(app, "/doc/cell/sram")
        assert "words" in response.body and "Parameters" in response.body

    def test_doc_for_user_model(self, app):
        post(
            app, "/define",
            user=USER, name="mine", equation="1u * VDD", parameters="",
            doc="", category="other", proprietary="no",
        )
        assert get(app, f"/doc/cell/mine?user={USER}").status == 200

    def test_tutorial_and_help(self, app):
        assert "PLAY" in get(app, "/tutorial").body
        assert "engineering notation" in get(app, "/help").body

    def test_unknown_route_404(self, app):
        assert get(app, "/warp").status == 404

    def test_injection_escaped_in_sheet(self, app):
        post(app, "/design/new", user=USER, name="xss")
        post(
            app, "/cell/save",
            user=USER, name="register", design="xss",
            row="r1", **{"p:bits": "8", "p:VDD": "1.5", "p:f": "1M"},
        )
        # a hostile global parameter name would arrive via the form; the
        # sheet page must escape whatever it echoes
        response = post(
            app, "/design", user=USER, name="xss",
            **{"g:VDD": "1.5"},
        )
        assert "<script>" not in response.body


class TestDefineWithAreaTiming:
    """'Parameterized models are also used for area and timing analysis.'"""

    def define_full(self, app):
        return post(
            app, "/define",
            user=USER, name="alu_block",
            equation="bitwidth * 68f * VDD^2 * f",
            parameters="bitwidth=16",
            area_equation="bitwidth * 2.3n",
            delay_equation="bitwidth * 1.1n * (1.5 / VDD)",
            doc="ALU with full PAT models", category="computation",
            proprietary="no",
        )

    def test_all_three_quantities_computed(self, app):
        response = self.define_full(app)
        assert "created" in response.body, response.body[:500]
        computed = post(
            app, "/cell", user=USER, name="alu_block",
            **{"p:bitwidth": "16", "p:VDD": "1.5", "p:f": "2M"},
        )
        assert "Power" in computed.body
        assert "Active area" in computed.body
        assert "Max frequency" in computed.body

    def test_bad_area_equation_rejected_on_form(self, app):
        response = post(
            app, "/define",
            user=USER, name="bad_area",
            equation="1u * VDD", parameters="",
            area_equation="nonsense(", delay_equation="",
            doc="", category="other", proprietary="no",
        )
        assert "error" in response.body

    def test_area_timing_survive_persistence(self, app, tmp_path):
        self.define_full(app)
        fresh = Application(tmp_path / "state")
        computed = fresh.handle(
            "POST", "/cell",
            {"user": USER, "name": "alu_block",
             "p:bitwidth": "8", "p:VDD": "1.5", "p:f": "2M"},
        )
        assert "Active area" in computed.body
        assert "Delay" in computed.body
