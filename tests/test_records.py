import re

import pytest

from revmatch.records import format_records, read_records


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
