"""Scenario file parsing, typed reads and the rules of a table."""

import pytest

from netmesh import ScenarioError
from netmesh.scenario import Scenario


def write(tmp_path, text):
    path = tmp_path / "case.txt"
    path.write_text(text)
    return path


class TestParsing:
    def test_key_value_lines(self, tmp_path):
        s = Scenario.load(write(tmp_path, "alpha = 1.5\nname= demo\ncount =3\n"))
        assert s.values == {"alpha": "1.5", "name": "demo", "count": "3"}

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        s = Scenario.load(
            write(tmp_path, "# header\n\nalpha = 1.5  # trailing note\n   \n")
        )
        assert s.values == {"alpha": "1.5"}

    def test_malformed_line_reports_path_and_line(self, tmp_path):
        path = write(tmp_path, "alpha = 1\nnonsense without equals\n")
        with pytest.raises(ScenarioError, match=rf"{path.name}:2"):
            Scenario.load(path)

    # str.splitlines() also breaks at each of these; a line ends at \n alone
    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                             ids=lambda c: f"U+{ord(c):04X}")
    def test_lines_are_numbered_by_newline_alone(self, tmp_path, char):
        path = tmp_path / "case.txt"
        path.write_text(f"alpha = 1\nbeta = 2{char}\nbogus\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match=rf"{path.name}:3: expected 'key = value', got 'bogus'"):
            Scenario.load(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_an_undecodable_byte_names_its_line(self, tmp_path, end):
        """A lone \\r ends a line in the count as it does in ``read_text``."""
        head = f"alpha = 1{end}beta = 2{end}".encode()
        path = tmp_path / "case.txt"
        path.write_bytes(head + b"\377 = 3" + end.encode())
        message = f"{path}:3: not UTF-8 text (invalid start byte at byte {len(head)})"
        with pytest.raises(ScenarioError) as err:
            Scenario.load(path)
        assert str(err.value) == message

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "alpha = 1\nalpha = 2\n")
        with pytest.raises(ScenarioError, match="duplicate key 'alpha'"):
            Scenario.load(path)

    def test_empty_key_rejected(self, tmp_path):
        path = write(tmp_path, " = 3\n")
        with pytest.raises(ScenarioError, match="empty key"):
            Scenario.load(path)


class TestTypedGetters:
    """Each kind of a table, as ``Scenario.read`` converts it."""

    def test_conversions(self):
        s = Scenario({"a": "2.5", "b": "7", "c": "hello", "tags": "1, 2  3"})
        table = {"a": ("float", None), "b": ("int", None), "c": ("str", None),
                 "tags": ("int_list", None)}
        assert s.read(table) == {"a": 2.5, "b": 7, "c": "hello", "tags": (1, 2, 3)}
        s.check()

    def test_defaults_apply_when_missing(self):
        s = Scenario({})
        assert s.read({"a": ("float", 1.25), "tags": ("int_list", (4,))}) == {"a": 1.25, "tags": (4,)}
        s.check()

    def test_errors_accumulate_and_name_every_key(self):
        s = Scenario({"a": "not-a-number", "tags": "1 x 3"}, source="case.txt")
        values = s.read({"a": ("float", 0.0), "missing": ("int", None), "tags": ("int_list", ())})
        assert values["a"] == 0.0  # falls back, remembers the failure
        with pytest.raises(ScenarioError) as err:
            s.check()
        message = str(err.value)
        assert message.startswith("case.txt:")
        assert "'a'" in message
        assert "'missing'" in message
        assert "'tags'" in message
        assert "cannot parse 'not-a-number' as float" in message  # the name KINDS gives
        assert "cannot parse '1 x 3' as int list" in message

    def test_check_passes_with_no_errors(self):
        Scenario({"a": "1"}).check()

    def test_unknown_keys(self):
        s = Scenario({"a": "1", "zeta": "2", "beta": "3"})
        assert s.unknown_keys({"a"}) == ["beta", "zeta"]
        assert s.unknown_keys({"a", "beta", "zeta"}) == []

    def test_check_with_known_keys_names_every_unknown_one(self):
        s = Scenario({"a": "1", "zeta": "2", "beta": "x"}, source="case.txt")
        s.read({"beta": ("float", 0.0)})
        with pytest.raises(ScenarioError, match="'beta'.*unknown key 'zeta'"):
            s.check(known={"a", "beta"})
        Scenario({"a": "1"}).check(known={"a", "b"})
