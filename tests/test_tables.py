from pathlib import Path

from unarynet.tables import render_table1, render_table2

GOLDEN = Path(__file__).resolve().parent / "data"


def test_table1_matches_golden_byte_exactly():
    assert render_table1() == (GOLDEN / "table1.golden").read_text()


def test_table2_matches_golden_byte_exactly():
    assert render_table2() == (GOLDEN / "table2.golden").read_text()


def test_table1_has_seven_rows_three_code_columns():
    rows = render_table1().splitlines()
    assert len(rows) == 7
    assert all(len(r.split("\t")) == 4 for r in rows)
    assert rows[3] == "4\t1111\t100\t110"


def test_table2_has_eleven_rows_two_code_columns():
    rows = render_table2().splitlines()
    assert len(rows) == 11
    assert all(len(r.split("\t")) == 3 for r in rows)
    assert rows[0] == "0\t0\t0000000000"
    assert rows[7] == "7\t11111110\t0001111111"

