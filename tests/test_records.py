import re
from dataclasses import dataclass
from functools import partial

import pytest

from revmatch.blind import BlindEstimate, Rt60Calibration
from revmatch.metrics import MetricReport
from revmatch.records import dump, format_records, load, read_records
from revmatch.rir import AcousticParams, EdcAnalysis


def test_records_roundtrip_and_skipped_lines(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text(format_records([("a", 0.1), ("flag", True), ("n", 7),
                                    ("mode", "half-normal")])
                    + "# comment\n\nno equals sign\n url = x=y \n")
    assert path.read_text().splitlines()[:4] == [
        "a=0.10000000000000001", "flag=1", "n=7", "mode=half-normal"]
    assert read_records(path) == {"a": "0.10000000000000001", "flag": "1",
                                  "n": "7", "mode": "half-normal",
                                  "url": "x=y"}
    assert float(read_records(path)["a"]) == 0.1


def test_repeated_key_is_an_error_naming_the_file_and_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("rt60=0.5\ndrr_db=0\n rt60 = 0.7\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: repeated rt60 record")):
        read_records(path)


@pytest.mark.parametrize("reader, text, key, what", [
    (partial(load, Rt60Calibration), "c0=abc\nc1=0\nc2=0\n", "c0", "float"),
    (partial(load, Rt60Calibration), "c0=0\nc1=0\nc2=0\nn_pairs=1.5\n",
     "n_pairs", "int"),
    (partial(load, AcousticParams), "rt60=0.5\ndrr_db=x\n", "drr_db",
     "float"),
    (partial(load, AcousticParams), "rt60=0.5\ndrr_db=0\nn_d=two\n", "n_d",
     "int"),
], ids=["calibration", "calibration-int", "params", "params-int"])
def test_non_numeric_record_names_the_file_and_key(tmp_path, reader, text,
                                                   key, what):
    path = tmp_path / "r.txt"
    path.write_text(text)
    value = read_records(path)[key]
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: {key} record {value!r} is not a valid {what}")):
        reader(path)


def test_dump_writes_the_fields_in_order_and_leaves_out_none():
    est = BlindEstimate(rt60=0.5, drr_db=3.0, raw_median_decay=0.25)
    assert dump(est) == ("rt60=0.5\ndrr_db=3\nraw_median_decay=0.25\n"
                         "anechoic=0\n")
    cal = Rt60Calibration(c0=0.5, c1=1.0, c2=2.0, residual=0.25, n_pairs=7)
    assert dump(cal) == "c0=0.5\nc1=1\nc2=2\nresidual=0.25\nn_pairs=7\n"
    rir_report = EdcAnalysis(rt60_est=0.5, sigma_est=0.25, drr_est_db=1.0,
                             t5=3, t25=9, e_5_25=0.5)
    assert dump(rir_report) == ("rt60_est=0.5\nsigma_est=0.25\ndrr_est_db=1\n"
                                "t5=3\nt25=9\ne_5_25=0.5\n")
    assert dump(MetricReport(sisdr_db=1.5, drr_abs_err_db=2.0)) == (
        "sisdr_db=1.5\ndrr_abs_err_db=2\n")


def test_load_fills_the_defaults_and_ignores_other_keys(tmp_path):
    path = tmp_path / "cal.txt"
    path.write_text("c0=0.5\nc1=1\nc2=2\ncomment=fitted by hand\n")
    cal = load(Rt60Calibration, path)
    assert cal == Rt60Calibration(c0=0.5, c1=1.0, c2=2.0)
    assert (cal.residual, cal.n_pairs) == (0.0, 0)
    path.write_text("rt60=0.4\ndrr_db=-2\nnoise_mode=half-normal\n")
    assert load(AcousticParams, path) == AcousticParams(
        rt60=0.4, drr_db=-2.0, noise_mode="half-normal")


def test_load_refuses_a_field_it_cannot_convert(tmp_path):
    @dataclass
    class Flagged:
        rt60: float
        on: bool = False

    path = tmp_path / "r.txt"
    path.write_text("rt60=0.5\n")
    with pytest.raises(TypeError, match="Flagged.on"):
        load(Flagged, path)
    with pytest.raises(TypeError, match="MetricReport.sisdr_db"):
        load(MetricReport, path)
