import json

import pytest

from kummeru import powerseries
from kummeru.cli import (EXIT_ACCURACY, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE,
                         GridSpec, grid_rows, main, read_grid_csv,
                         select_method, table2_residuals, write_grid_csv)
from kummeru.numcore import DomainError


class TestSelectMethod:
    def test_power_region(self):
        assert select_method(0.2, 1e-4, 1 + 1j) == "power"
        assert select_method(2.5, 0.4, complex(1.0)) == "power"

    def test_convergent_region(self):
        assert select_method(5.0, 0.4, complex(0.5)) == "convergent"
        assert select_method(3.0, 0.5, complex(0.9)) == "convergent"

    def test_slater_region(self):
        assert select_method(50.0, 0.4, complex(0.5)) == "slater"

    def test_tie_break_order(self):
        # power wins where it applies; convergent beats slater
        assert select_method(2.0, 0.4, complex(0.5)) == "power"
        assert select_method(50.0, 0.4, complex(0.2)) == "convergent"

    def test_deterministic(self):
        args = (1.5, 0.3, complex(0.7))
        assert select_method(*args) == select_method(*args)

    def test_convergent_needs_z_within_4(self):
        assert select_method(0.5, 0.4, complex(4.0)) == "convergent"
        with pytest.raises(DomainError, match="no method"):
            select_method(0.5, 0.4, complex(4.5))
        with pytest.raises(DomainError, match="no method"):
            select_method(0.065, 0.69, complex(136.8, -20.8))

    def test_negative_real_axis_not_convergent(self):
        # the convergent route cannot take az on its branch cut, and the
        # power route stops at |a| = 2.5
        assert select_method(2.0, 0.4, complex(-0.5)) == "power"
        for z in (complex(-0.5), complex(-0.5, -0.0)):
            with pytest.raises(DomainError, match="no method covers"):
                select_method(5.0, 0.4, z)
        assert select_method(5.0, 0.4, complex(-0.5, 0.1)) == "convergent"

    def test_uncovered_point(self):
        with pytest.raises(DomainError):
            select_method(-5.0, 3.0, complex(4.0))

    def test_zero_z_rejected_before_routing(self):
        with pytest.raises(DomainError, match="nonzero"):
            select_method(0.2, 0.3, 0j)


class TestEval:
    def test_json_schema_and_power_route(self, capsys):
        rc = main(["eval", "--a", "0.2", "--b", "1e-4", "--z", "1,1", "--json"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        rec = json.loads(out)
        assert set(rec) == {"u_re", "u_im", "up_re", "up_im", "terms",
                            "est_err", "method"}
        assert rec["method"] == "power"
        assert 10 <= rec["terms"] <= 30

    def test_trivial_value(self, capsys):
        rc = main(["eval", "--a", "0", "--b", "0.3", "--z", "0.5", "--json"])
        rec = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert rec["u_re"] == 1.0 and rec["u_im"] == 0.0
        assert rec["up_re"] == 0.0 and rec["up_im"] == 0.0

    def test_zero_z_domain_error(self, capsys):
        rc = main(["eval", "--a", "0.2", "--b", "0.5", "--z", "0"])
        capsys.readouterr()
        assert rc == EXIT_DOMAIN

    def test_gamma_overflow_not_reported_as_pole(self, capsys):
        rc = main(["eval", "--a", "200", "--b", "0.3", "--z", "0.25"])
        err = capsys.readouterr().err
        assert rc == EXIT_DOMAIN
        assert "overflow" in err and "pole" not in err

    def test_gamma_overflow_with_subnormal_recip_gamma(self, capsys):
        # 1/Gamma(172.7) is subnormal, not 0; U used to come back as 0.0
        rc = main(["eval", "--a", "172", "--b", "0.3", "--z", "0.4"])
        err = capsys.readouterr().err
        assert rc == EXIT_DOMAIN
        assert "overflows the double range" in err

    def test_usage_error_exit_code(self, capsys):
        rc = main(["eval", "--b", "0.5", "--z", "1"])
        capsys.readouterr()
        assert rc == EXIT_USAGE

    def test_explicit_methods_agree(self, capsys):
        rc1 = main(["eval", "--a", "0.5", "--b", "0.4", "--z", "0.6",
                    "--method", "power", "--json"])
        rec1 = json.loads(capsys.readouterr().out)
        rc2 = main(["eval", "--a", "0.5", "--b", "0.4", "--z", "0.6",
                    "--method", "convergent", "--json"])
        rec2 = json.loads(capsys.readouterr().out)
        assert rc1 == rc2 == EXIT_OK
        assert abs(rec1["u_re"] - rec2["u_re"]) <= 1e-12 * abs(rec1["u_re"])

    def test_slater_method(self, capsys):
        rc = main(["eval", "--a", "80", "--b", "0.3", "--z", "0.3",
                   "--method", "slater", "--json"])
        rec = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert rec["method"] == "slater"
        assert rec["up_re"] is None

    def test_max_terms_env_override(self, capsys):
        rc = main(["eval", "--a", "0.2", "--b", "0.3", "--z", "1,1",
                   "--terms", "3", "--json"])
        capsys.readouterr()
        assert rc == EXIT_ACCURACY

    def test_zero_terms_exit_domain(self, capsys):
        rc = main(["eval", "--a", "5", "--b", "0.4", "--z", "0.5",
                   "--terms", "0", "--json"])
        capsys.readouterr()
        assert rc == EXIT_DOMAIN

    def test_human_readable_output(self, capsys):
        rc = main(["eval", "--a", "0.2", "--b", "0.3", "--z", "0.5"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "U      =" in out and "method = power" in out


class TestTable2:
    def test_residual_rows(self):
        rows = table2_residuals()
        assert len(rows) == 5
        for k, r1, r2 in rows:
            assert r1 <= 5e-14 and r2 <= 5e-14

    def test_command_exit_and_layout(self, capsys):
        rc = main(["table2"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("\n") >= 7  # header + 5 rows + summary


class TestGrid:
    def test_fixed_terms_roundtrip(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["grid", "--b", "0.4", "--a-min", "0.5", "--a-max", "2.0",
                   "--a-steps", "3", "--z-min", "0.2", "--z-max", "0.8",
                   "--z-steps", "3", "--n-terms", "20", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_grid_csv(str(out))
        assert len(rows) == 9
        assert all(r.method == "convergent" for r in rows)
        assert all(r.rel_err <= 1e-12 for r in rows)
        spec = GridSpec(b=0.4, a_min=0.5, a_max=2.0, a_steps=3,
                        z_min=0.2, z_max=0.8, z_steps=3, n_terms=20)
        assert grid_rows(spec, "fixed_terms") == rows

    def test_terms_needed_mode(self, tmp_path):
        out = tmp_path / "terms.csv"
        rc = main(["grid", "--b", "0.4", "--a-min", "0.5", "--a-max", "2.0",
                   "--a-steps", "3", "--z-min", "0.05", "--z-max", "0.25",
                   "--z-steps", "3", "--mode", "terms_needed",
                   "--target-tol", "1e-14", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_grid_csv(str(out))
        assert rows
        assert all(r.terms_used <= 10 for r in rows)

    def test_power_reference_only_where_selected(self, tmp_path):
        # z > 1.5 at a <= 2.5 is off the power route: the M proxy serves
        out = tmp_path / "grid.csv"
        rc = main(["grid", "--b", "0.4", "--a-min", "0.5", "--a-max", "2.5",
                   "--a-steps", "3", "--z-min", "0.1", "--z-max", "3",
                   "--z-steps", "3", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_grid_csv(str(out))
        assert len(rows) == 9
        assert all(r.rel_err <= 1e-12 for r in rows)

    @pytest.mark.parametrize("mode", ["fixed_terms", "terms_needed"])
    def test_one_reference_per_cell(self, monkeypatch, mode):
        calls = []
        for name in ("eval_u", "kummer_m_direct"):
            def counted(*args, _fn=getattr(powerseries, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(powerseries, name, counted)
        # a = 1.5, 2.5, 3.5 crosses the |a| <= 2.5 edge of the U reference
        spec = GridSpec(b=0.4, a_min=1.5, a_max=3.5, a_steps=3,
                        z_min=0.05, z_max=0.25, z_steps=3)
        rows = grid_rows(spec, mode)
        assert len(rows) == 9
        assert calls.count("eval_u") == 6
        assert calls.count("kummer_m_direct") == 3

    def test_out_of_region_cells_omitted(self, tmp_path):
        # all four corners have za > 10: header-only file
        out = tmp_path / "empty.csv"
        rc = main(["grid", "--b", "0.4", "--a-min", "15", "--a-max", "20",
                   "--a-steps", "2", "--z-min", "0.9", "--z-max", "1.0",
                   "--z-steps", "2", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text().strip() == "a,z,rel_err,terms_used,method"

    def test_invalid_spec_exit_domain(self, tmp_path, capsys):
        rc = main(["grid", "--b", "0.99", "--a-min", "0.5", "--a-max", "2.0",
                   "--a-steps", "3", "--z-min", "0.2", "--z-max", "0.8",
                   "--z-steps", "3", "--out", str(tmp_path / "x.csv")])
        capsys.readouterr()
        assert rc == EXIT_DOMAIN

    @pytest.mark.parametrize("mode", ["fixed_terms", "terms_needed"])
    def test_zero_terms_exit_domain(self, tmp_path, capsys, mode):
        rc = main(["grid", "--b", "0.4", "--a-min", "0.5", "--a-max", "2.0",
                   "--a-steps", "3", "--z-min", "0.05", "--z-max", "0.25",
                   "--z-steps", "3", "--n-terms", "0", "--mode", mode,
                   "--out", str(tmp_path / "x.csv")])
        capsys.readouterr()
        assert rc == EXIT_DOMAIN

    def test_csv_shortest_roundtrip_format(self, tmp_path):
        out = tmp_path / "fmt.csv"
        spec = GridSpec(b=0.4, a_min=0.1, a_max=0.3, a_steps=2,
                        z_min=0.3, z_max=0.7, z_steps=2)
        rows = grid_rows(spec, "fixed_terms")
        write_grid_csv(rows, str(out))
        assert read_grid_csv(str(out)) == rows


class TestProbe:
    def test_report_fields_and_exit(self, capsys):
        rc = main(["probe", "--a", "2", "--b", "0.5", "--k-start", "200",
                   "--seeds", "5"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        for fieldname in ("k_start", "seed_count", "ratio_alpha", "ratio_beta",
                          "seed_spread", "matches_initial_values"):
            assert fieldname in out
        assert "matches_initial_values  = False" in out

    def test_single_seed(self, capsys):
        rc = main(["probe", "--a", "2", "--b", "0.5", "--k-start", "100",
                   "--seeds", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "seed_spread             = 0.0" in out


class TestGCheck:
    def test_origin(self, capsys):
        rc = main(["gcheck", "--a", "0", "--b", "0"])
        capsys.readouterr()
        assert rc == EXIT_OK

    def test_quarter_point(self, capsys):
        rc = main(["gcheck", "--a", "0.25", "--b", "0.25"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        diff = float(out.splitlines()[2].split("=")[1])
        assert diff <= 1e-13

    def test_contour_must_enclose(self, capsys):
        rc = main(["gcheck", "--a", "0.25", "--b", "0.0", "--radius", "0.2"])
        capsys.readouterr()
        assert rc == EXIT_DOMAIN
