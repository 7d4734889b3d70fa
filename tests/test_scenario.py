"""Scenario file parsing and typed-getter validation."""

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

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "alpha = 1\nalpha = 2\n")
        with pytest.raises(ScenarioError, match="duplicate key 'alpha'"):
            Scenario.load(path)

    def test_empty_key_rejected(self, tmp_path):
        path = write(tmp_path, " = 3\n")
        with pytest.raises(ScenarioError, match="empty key"):
            Scenario.load(path)


class TestTypedGetters:
    def test_conversions(self):
        s = Scenario({"a": "2.5", "b": "7", "c": "hello", "tags": "1, 2  3"})
        assert s.get_float("a") == 2.5
        assert s.get_int("b") == 7
        assert s.get_str("c") == "hello"
        assert s.get_int_list("tags") == (1, 2, 3)
        s.check()

    def test_defaults_apply_when_missing(self):
        s = Scenario({})
        assert s.get_float("a", 1.25) == 1.25
        assert s.get_int_list("tags", (4,)) == (4,)
        s.check()

    def test_errors_accumulate_and_name_every_key(self):
        s = Scenario({"a": "not-a-number", "tags": "1 x 3"}, source="case.txt")
        assert s.get_float("a", 0.0) == 0.0  # falls back, remembers the failure
        s.get_int("missing")
        s.get_int_list("tags")
        with pytest.raises(ScenarioError) as err:
            s.check()
        message = str(err.value)
        assert message.startswith("case.txt:")
        assert "'a'" in message
        assert "'missing'" in message
        assert "'tags'" in message

    def test_check_passes_with_no_errors(self):
        Scenario({"a": "1"}).check()

    def test_unknown_keys(self):
        s = Scenario({"a": "1", "zeta": "2", "beta": "3"})
        assert s.unknown_keys({"a"}) == ["beta", "zeta"]
        assert s.unknown_keys({"a", "beta", "zeta"}) == []

    def test_check_with_known_keys_names_every_unknown_one(self):
        s = Scenario({"a": "1", "zeta": "2", "beta": "x"}, source="case.txt")
        s.get_float("beta", 0.0)
        with pytest.raises(ScenarioError, match="'beta'.*unknown key 'zeta'"):
            s.check(known={"a", "beta"})
        Scenario({"a": "1"}).check(known={"a", "b"})
