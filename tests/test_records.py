import re

import pytest

from revmatch.blind import Rt60Calibration
from revmatch.records import format_records, read_records
from revmatch.rir import params_from_file


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
    (Rt60Calibration.from_file, "c0=abc\nc1=0\nc2=0\n", "c0", "float"),
    (Rt60Calibration.from_file, "c0=0\nc1=0\nc2=0\nn_pairs=1.5\n", "n_pairs",
     "int"),
    (params_from_file, "rt60=0.5\ndrr_db=x\n", "drr_db", "float"),
    (params_from_file, "rt60=0.5\ndrr_db=0\nn_d=two\n", "n_d", "int"),
], ids=["calibration", "calibration-int", "params", "params-int"])
def test_non_numeric_record_names_the_file_and_key(tmp_path, reader, text,
                                                   key, what):
    path = tmp_path / "r.txt"
    path.write_text(text)
    value = read_records(path)[key]
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: {key} record {value!r} is not a valid {what}")):
        reader(path)
