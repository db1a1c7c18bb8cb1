import numpy as np
import pytest

from reflowsim import ThermalTrace, load_trace_csv, write_trace_csv


@pytest.fixture
def sample_trace():
    temps = 25.0 + 10.0 * np.sin(np.arange(40) * 0.13)
    return ThermalTrace(0.5, 70.0, temps)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path, sample_trace):
        path = tmp_path / "trace.csv"
        write_trace_csv(sample_trace, path)
        loaded = load_trace_csv(path)
        assert loaded.belt_speed == sample_trace.belt_speed
        assert loaded.dt == pytest.approx(sample_trace.dt, abs=1e-9)
        assert np.max(np.abs(loaded.temps - sample_trace.temps)) <= 1e-6
        assert np.max(np.abs(loaded.times - sample_trace.times)) <= 1e-6

    def test_default_trace_round_trip(self, tmp_path, default_trace):
        path = tmp_path / "trace.csv"
        write_trace_csv(default_trace, path)
        loaded = load_trace_csv(path)
        assert np.max(np.abs(loaded.temps - default_trace.temps)) <= 1e-6

    def test_written_file_shape(self, tmp_path, sample_trace):
        path = tmp_path / "trace.csv"
        write_trace_csv(sample_trace, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# belt_speed_cm_min =")
        assert lines[1] == "t_s,x_cm,temp_c"
        assert len(lines) == 2 + len(sample_trace)
        assert lines[2] == "0.000000,0.000000,25.000000"


class TestTwoColumnFiles:
    def _write(self, path, body, speed_comment=None):
        with open(path, "w") as fh:
            if speed_comment is not None:
                fh.write(f"# belt_speed_cm_min = {speed_comment}\n")
            fh.write(body)

    def test_positions_reconstructed_from_argument(self, tmp_path):
        path = tmp_path / "short.csv"
        self._write(path, "t_s,temp_c\n0.0,25.0\n0.5,26.0\n1.0,27.0\n")
        trace = load_trace_csv(path, belt_speed=70.0)
        np.testing.assert_allclose(trace.positions, (70.0 / 60.0) * trace.times)

    def test_speed_from_comment(self, tmp_path):
        path = tmp_path / "short.csv"
        self._write(path, "t_s,temp_c\n0.0,25.0\n0.5,26.0\n", speed_comment="65.5")
        assert load_trace_csv(path).belt_speed == 65.5

    def test_argument_overrides_comment(self, tmp_path):
        path = tmp_path / "short.csv"
        self._write(path, "t_s,temp_c\n0.0,25.0\n0.5,26.0\n", speed_comment="65.5")
        assert load_trace_csv(path, belt_speed=80.0).belt_speed == 80.0

    def test_missing_speed_is_an_error(self, tmp_path):
        path = tmp_path / "short.csv"
        self._write(path, "t_s,temp_c\n0.0,25.0\n0.5,26.0\n")
        with pytest.raises(ValueError, match="belt speed"):
            load_trace_csv(path)

    def test_speed_inferred_from_x_column(self, tmp_path):
        path = tmp_path / "full.csv"
        self._write(path, "t_s,x_cm,temp_c\n0.0,0.0,25.0\n60.0,70.0,26.0\n")
        assert load_trace_csv(path).belt_speed == pytest.approx(70.0, rel=1e-9)


class TestMalformedFiles:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,temp\n0.0,25.0\n")
        with pytest.raises(ValueError, match="header"):
            load_trace_csv(path)

    def test_decreasing_time_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,temp_c\n0.0,25.0\n0.5,26.0\n0.2,27.0\n")
        with pytest.raises(ValueError, match="row 4"):
            load_trace_csv(path, belt_speed=70.0)

    def test_nonuniform_spacing_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,temp_c\n0.0,25.0\n0.5,26.0\n1.0,27.0\n1.8,28.0\n")
        with pytest.raises(ValueError, match="non-uniform"):
            load_trace_csv(path, belt_speed=70.0)

    def test_nonzero_start(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,temp_c\n5.0,25.0\n5.5,26.0\n")
        with pytest.raises(ValueError, match="start at 0"):
            load_trace_csv(path, belt_speed=70.0)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,temp_c\n0.0,25.0\n0.5,hot\n")
        with pytest.raises(ValueError, match="row 3"):
            load_trace_csv(path, belt_speed=70.0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_row(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"t_s,temp_c\n0.0,25.0\n0.5,26.0\n1.0,{cell}\n")
        with pytest.raises(ValueError, match=f"row 4: non-finite value '{cell}'"):
            load_trace_csv(path, belt_speed=70.0)

    @pytest.mark.parametrize("speed", ["nan", "inf"])
    def test_non_finite_comment_speed(self, tmp_path, speed):
        path = tmp_path / "bad.csv"
        path.write_text(f"# belt_speed_cm_min = {speed}\nt_s,temp_c\n0.0,25.0\n0.5,26.0\n")
        with pytest.raises(ValueError, match=f"must be positive and finite, got {speed}"):
            load_trace_csv(path)

    def test_malformed_comment_speed_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# a trace\n# belt_speed_cm_min = fast\nt_s,temp_c\n0.0,25.0\n0.5,26.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv: line 2: belt speed comment 'fast'"):
            load_trace_csv(path)

    def test_wrong_column_count_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,temp_c\n0.0,25.0\n0.5,26.0,1.0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_trace_csv(path, belt_speed=70.0)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,temp_c\n0.0,25.0\n")
        with pytest.raises(ValueError, match="2 data rows"):
            load_trace_csv(path, belt_speed=70.0)

    def test_inconsistent_x_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,x_cm,temp_c\n0.0,0.0,25.0\n0.5,9.9,26.0\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_trace_csv(path, belt_speed=70.0)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(
            "# a comment\n\nt_s,temp_c\n# another\n0.0,25.0\n0.5,26.0\n"
        )
        trace = load_trace_csv(path, belt_speed=70.0)
        assert len(trace) == 2
