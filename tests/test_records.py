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
